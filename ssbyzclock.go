// Package ssbyzclock is a self-stabilizing, Byzantine-tolerant digital
// clock synchronization library, implementing Ben-Or, Dolev & Hoch,
// "Fast Self-Stabilizing Byzantine Tolerant Digital Clock
// Synchronization" (PODC 2008).
//
// A cluster of n nodes, up to f < n/3 of them Byzantine, driven by a
// common beat signal, agrees on a clock value in [0, k) that increments
// by one every beat — converging from *any* initial state (arbitrary
// memory corruption, stale network buffers) in expected constant time.
//
// Three levels of API:
//
//   - Node: a single protocol participant with a byte-oriented message
//     interface, ready to be wired to any transport that can deliver all
//     of a beat's messages before the next beat.
//   - Cluster: the in-process lockstep engine — n nodes, a built-in
//     global beat and an optional Byzantine adversary, stepped one beat
//     at a time and deterministic from Config.Seed. It is the oracle the
//     rest of the repository is checked against and the quickest way to
//     see the protocol run. It does not put goroutines or wire bytes
//     between the nodes: that deployment shape is the event-loop runtime
//     behind cmd/clocknet and cmd/clocknode (internal/noderuntime), which
//     in its Lockstep mode replays this engine bit for bit.
//   - The experiment harness behind `go test -bench` and cmd/repro,
//     which reproduces the paper's Table 1 and validates Figures 1-4.
//
// The underlying common coin is a Feldman–Micali-style protocol over
// graded verifiable secret sharing (CoinFM); a trusted-beacon coin
// (CoinRabin) and a deliberately non-common local coin (CoinLocal) are
// available for experiments. Where the coin departs from Feldman–Micali
// is recorded in the substitution note of internal/gvss's package doc.
package ssbyzclock

import (
	"errors"
	"fmt"
	"math/rand"

	"ssbyzclock/internal/adversary"
	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/sim"
	"ssbyzclock/internal/wire"
)

// CoinKind selects the common-coin implementation.
type CoinKind int

// Coin kinds. CoinFM is the paper's setting and the default.
const (
	// CoinFM is the Feldman–Micali-style GVSS coin: no setup assumptions,
	// f < n/3, constant agreement probability. Δ_A = 5 rounds.
	CoinFM CoinKind = iota
	// CoinRabin is an idealized predistributed beacon (always agrees).
	// It relies on shared initialization — exactly what the paper's
	// footnote 1 rules out for the headline result — but is fast and
	// handy for large-n experiments.
	CoinRabin
	// CoinLocal is independent per-node randomness: NOT a common coin.
	// With it the clock degrades to Dolev–Welch-style exponential
	// convergence; provided for the E9 ablation.
	CoinLocal
)

func (k CoinKind) String() string {
	switch k {
	case CoinFM:
		return "fm"
	case CoinRabin:
		return "rabin"
	case CoinLocal:
		return "local"
	default:
		return fmt.Sprintf("coin(%d)", int(k))
	}
}

// Layout selects how the clock stack wires its sub-protocols to
// ss-Byz-Coin-Flip pipelines. Both layouts implement the same theorems;
// the differential harness in internal/core holds them equivalent under
// the full adversary suite.
type Layout int

// Coin-pipeline layouts. LayoutShared is the default.
const (
	// LayoutShared runs ONE coin pipeline per node, shared by the stack's
	// three consumers via derived per-consumer bits (the paper's Remark
	// 4.1) — about half the messages and a third of the coin cost of the
	// paper layout.
	LayoutShared Layout = iota
	// LayoutPaper runs one pipeline per consumer, the literal layout of
	// the paper's Figures 2-4.
	LayoutPaper
)

func (l Layout) String() string {
	switch l {
	case LayoutShared:
		return "shared"
	case LayoutPaper:
		return "paper"
	default:
		return fmt.Sprintf("layout(%d)", int(l))
	}
}

// Config describes one clock-synchronization deployment.
type Config struct {
	// N is the cluster size; F the tolerated Byzantine count. The
	// protocol requires F < N/3.
	N, F int
	// K is the clock modulus (Definition 3.2's k). Zero means 64.
	K uint64
	// Coin selects the common-coin implementation (default CoinFM).
	Coin CoinKind
	// Layout selects the coin-pipeline layout (default LayoutShared).
	Layout Layout
	// Seed drives all node randomness; runs with equal seeds replay
	// exactly in simulation.
	Seed int64
}

// normalize applies defaults and validates.
func (c Config) normalize() (Config, error) {
	if c.K == 0 {
		c.K = 64
	}
	if c.N <= 0 {
		return c, errors.New("ssbyzclock: N must be positive")
	}
	if c.F < 0 || 3*c.F >= c.N {
		return c, fmt.Errorf("ssbyzclock: need F < N/3, got N=%d F=%d", c.N, c.F)
	}
	if c.Layout != LayoutShared && c.Layout != LayoutPaper {
		return c, fmt.Errorf("ssbyzclock: unknown layout %v", c.Layout)
	}
	return c, nil
}

func (c Config) coreLayout() core.Layout {
	if c.Layout == LayoutPaper {
		return core.LayoutPaper
	}
	return core.LayoutShared
}

func (c Config) coinFactory() coin.Factory {
	switch c.Coin {
	case CoinRabin:
		return coin.RabinFactory{Seed: c.Seed}
	case CoinLocal:
		return coin.LocalFactory{}
	default:
		return coin.FMFactory{}
	}
}

// OutMessage is a message a Node wants delivered this beat. To is a node
// id, or BroadcastTo for all nodes. Data must reach the recipient before
// the next beat (the paper's synchrony assumption).
type OutMessage struct {
	To   int
	Data []byte
}

// BroadcastTo addresses an OutMessage to every node (self included).
const BroadcastTo = proto.Broadcast

// InMessage is a message received during the current beat. From must be
// the authenticated sender id: the model assumes sender identities cannot
// be forged (Definition 2.2), so transports must provide that property.
type InMessage struct {
	From int
	Data []byte
}

// Node is one protocol participant, transport-agnostic: call BeginBeat on
// every beat signal, deliver its messages, collect the beat's incoming
// messages, then call EndBeat. Clock is valid between beats.
//
// Node is not safe for concurrent use; drive it from one goroutine.
type Node struct {
	id   int
	prot *core.ClockSync
	// dec holds the decoded inbox of the last EndBeat, which is valid
	// until the next one begins.
	dec wire.Decoder
}

// NewNode builds participant id (0 <= id < cfg.N).
func NewNode(cfg Config, id int) (*Node, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	if id < 0 || id >= cfg.N {
		return nil, fmt.Errorf("ssbyzclock: id %d out of range [0,%d)", id, cfg.N)
	}
	env := proto.Env{
		N: cfg.N, F: cfg.F, ID: id,
		Rng: rand.New(rand.NewSource(cfg.Seed + int64(id)*1_000_003)),
	}
	return &Node{id: id, prot: core.NewClockSyncLayout(env, cfg.K, cfg.coinFactory(), false, cfg.coreLayout())}, nil
}

// BeginBeat must be called exactly once per beat signal, with the beat
// number from the beat source; it returns the wire-encoded messages to
// send this beat.
func (n *Node) BeginBeat(beat uint64) ([]OutMessage, error) {
	sends := n.prot.Compose(beat)
	out := make([]OutMessage, 0, len(sends))
	for _, s := range sends {
		data, err := wire.Encode(s.Msg)
		if err != nil {
			return nil, fmt.Errorf("ssbyzclock: encode: %w", err)
		}
		out = append(out, OutMessage{To: s.To, Data: data})
	}
	return out, nil
}

// EndBeat must be called once all of the beat's messages have arrived.
// Undecodable messages are ignored (only faulty peers produce them).
func (n *Node) EndBeat(beat uint64, inbox []InMessage) {
	n.dec.Reset() // the previous beat's messages are dead
	recvs := make([]proto.Recv, 0, len(inbox))
	for _, im := range inbox {
		m, err := n.dec.Decode(im.Data)
		if err != nil {
			continue
		}
		recvs = append(recvs, proto.Recv{From: im.From, Msg: m})
	}
	n.prot.Deliver(beat, recvs)
}

// Clock returns the node's current clock value in [0, K). Whether the
// cluster is synchronized is a global property: self-stabilization rules
// out a reliable local "converged" flag, so ok here only reports that the
// value is well-defined (always true for the full clock).
func (n *Node) Clock() (value uint64, ok bool) { return n.prot.Clock() }

// ID returns the node id.
func (n *Node) ID() int { return n.id }

// RandomBit returns the node's current common random bit — the output of
// the underlying self-stabilizing coin-flipping pipeline (ss-Byz-Coin-
// Flip, Figure 1), one fresh bit per beat with constant probability of
// being common to all honest nodes. Per the paper's Section 6.1, the
// adversary also sees this bit in the beat it is produced, so protocols
// built on it must only use it to choose between states committed in the
// previous beat.
func (n *Node) RandomBit() byte { return n.prot.RandBit() }

// AdversaryKind selects a built-in Byzantine strategy for Cluster runs.
type AdversaryKind int

// Built-in adversaries, from benign to protocol-aware.
const (
	// AdvPassive: faulty nodes follow the protocol.
	AdvPassive AdversaryKind = iota
	// AdvSilent: faulty nodes crash (send nothing).
	AdvSilent
	// AdvSplitter: rushing, equivocating attack on the clock layer.
	AdvSplitter
	// AdvGradeSplitter: equivocating attack on the coin's grades.
	AdvGradeSplitter
)

func (k AdversaryKind) String() string {
	switch k {
	case AdvPassive:
		return "passive"
	case AdvSilent:
		return "silent"
	case AdvSplitter:
		return "splitter"
	case AdvGradeSplitter:
		return "grade-splitter"
	default:
		return fmt.Sprintf("adv(%d)", int(k))
	}
}

func (k AdversaryKind) build() func(ctx *adversary.Context) adversary.Adversary {
	switch k {
	case AdvSilent:
		return func(*adversary.Context) adversary.Adversary { return adversary.Silent{} }
	case AdvSplitter:
		return func(ctx *adversary.Context) adversary.Adversary { return &adversary.ClockSplitter{Ctx: ctx} }
	case AdvGradeSplitter:
		return func(ctx *adversary.Context) adversary.Adversary { return &adversary.GradeSplitter{Ctx: ctx} }
	default:
		return nil
	}
}

// ClusterOptions configures NewCluster beyond the protocol Config.
type ClusterOptions struct {
	// Adversary controls the last Config.F nodes (default AdvPassive).
	Adversary AdversaryKind
	// ScrambleStart starts every honest node from an arbitrary state, as
	// after a transient fault. Recommended: a fresh cluster is otherwise
	// trivially synchronized.
	ScrambleStart bool
}

// Cluster is the in-process lockstep engine: n nodes stepped one global
// beat at a time, with an optional Byzantine adversary, deterministic
// from Config.Seed (the same seed names the same execution in cmd/clocksim,
// the sweep and a Lockstep networked cluster). Close it when done; it is
// not safe for concurrent use.
type Cluster struct {
	eng    *sim.Engine
	cfg    Config
	closed bool
}

// NewCluster builds a cluster.
func NewCluster(cfg Config, opts ClusterOptions) (*Cluster, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	eng := sim.New(sim.Config{
		N: cfg.N, F: cfg.F, Seed: cfg.Seed,
		NewAdversary:  opts.Adversary.build(),
		ScrambleStart: opts.ScrambleStart,
	}, core.NewClockSyncProtocolLayout(cfg.K, cfg.coinFactory(), cfg.coreLayout()))
	return &Cluster{eng: eng, cfg: cfg}, nil
}

// BeatResult reports the cluster state after one beat.
type BeatResult struct {
	Beat uint64
	// Clocks holds every node's clock (honest nodes first; the last F
	// entries are the adversary's bookkeeping copies).
	Clocks []uint64
	// Synced reports whether all honest nodes agree, and on what.
	Synced bool
	Value  uint64
}

// Step executes one beat.
func (c *Cluster) Step() (BeatResult, error) {
	if c.closed {
		return BeatResult{}, errors.New("ssbyzclock: cluster closed")
	}
	res := BeatResult{Beat: c.eng.Beat(), Clocks: make([]uint64, c.cfg.N)}
	c.eng.Step()
	for i := range res.Clocks {
		res.Clocks[i], _ = c.eng.Node(i).(proto.ClockReader).Clock()
	}
	res.Value, res.Synced = sim.ReadClocks(c.eng).Synced()
	return res, nil
}

// RunUntilSynced steps until the honest clocks have been synchronized and
// incrementing for hold consecutive beats, or maxBeats elapse. It returns
// the number of beats executed and whether synchronization was reached.
func (c *Cluster) RunUntilSynced(maxBeats, hold int) (int, bool, error) {
	streak := 0
	var prev uint64
	havePrev := false
	for b := 1; b <= maxBeats; b++ {
		res, err := c.Step()
		if err != nil {
			return b, false, err
		}
		if res.Synced && (!havePrev || res.Value == (prev+1)%c.cfg.K) {
			streak++
		} else {
			streak = 0
		}
		prev, havePrev = res.Value, res.Synced
		if streak >= hold {
			return b, true, nil
		}
	}
	return maxBeats, false, nil
}

// ScrambleHonest injects a transient fault into every honest node's
// memory, drawn from seed; the protocol must re-converge within expected
// constant beats.
func (c *Cluster) ScrambleHonest(seed int64) {
	rng := sim.ScrambleRng(seed)
	for _, id := range c.eng.HonestIDs() {
		c.eng.Node(id).(proto.Scrambler).Scramble(rng)
	}
}

// Close retires the cluster: Step fails afterwards. Closing twice is
// harmless.
func (c *Cluster) Close() { c.closed = true }
