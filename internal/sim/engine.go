// Package sim is the deterministic lockstep simulation engine for the
// paper's synchronous model: a global beat system over a fully connected
// network in which every message sent at beat r arrives before beat r+1,
// up to f nodes are Byzantine (driven by an adversary.Adversary with
// rushing and private channels), and transient faults can scramble node
// state and inject phantom messages.
//
// All randomness derives from a single seed, so every run replays
// exactly.
package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"ssbyzclock/internal/adversary"
	"ssbyzclock/internal/faultnet"
	"ssbyzclock/internal/obs"
	"ssbyzclock/internal/pool"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/wire"
)

// PoolMode selects how the engine pools beat-scoped message payloads
// (see package pool and proto.Message's lifetime contract).
type PoolMode uint8

const (
	// PoolOn (the zero value) pools payload buffers.
	PoolOn PoolMode = iota
	// PoolOff allocates every payload fresh — the reference side of the
	// pooled-vs-unpooled differential harness, selectable forever.
	PoolOff
	// PoolPoison pools and scribbles recycled buffers so any illegally
	// retained reference fails loudly (tests).
	PoolPoison
)

// NodeFactory builds one node's protocol instance.
type NodeFactory func(env proto.Env) proto.Protocol

// Config describes one simulated cluster.
type Config struct {
	// N is the cluster size, F the number of Byzantine nodes.
	N, F int
	// Seed drives every random choice of the run (node randomness,
	// adversary randomness, scrambling).
	Seed int64
	// Faulty lists the adversary-controlled node ids. Empty means the
	// last F ids.
	Faulty []int
	// NewAdversary builds the adversary; nil means Passive (faulty nodes
	// follow the protocol).
	NewAdversary func(ctx *adversary.Context) adversary.Adversary
	// ScrambleStart overwrites every honest node's state with arbitrary
	// values before the first beat. Convergence experiments need it:
	// freshly constructed nodes are often already synchronized, whereas
	// the paper's claims quantify over arbitrary initial states.
	ScrambleStart bool
	// CountBytes additionally tallies the wire-encoded size of every
	// honest message into HonestBytes (slower; used by experiment E8).
	CountBytes bool
	// Workers is the number of blocks the per-node-independent phases
	// (Compose, Deliver, byte accounting) fan out over, run by the
	// stepping goroutine and the process-wide crew (see Scheduler). 0
	// selects GOMAXPROCS; 1 runs fully inline. Every worker count replays
	// byte-identically from the same seed: work assignment is
	// deterministic, phase outputs go to per-node slots, and the
	// adversary, metrics and inbox merge run sequentially between the
	// parallel phases.
	Workers int
	// Pool selects pooling (default: pooled). Pooled and unpooled runs
	// replay byte-identically from the same seed; pooling only changes
	// where beat-scoped memory comes from.
	Pool PoolMode
	// Pools supplies externally owned per-node pools (length N, entries
	// may repeat). When set, the engine hands them to the node envs but
	// does NOT recycle them — the owner does, after the Deliver phase.
	// The multi-tenant driver uses this to point every tenant node at
	// its worker group's pool; when nil the engine owns per-node pools
	// per the Pool mode.
	Pools []*pool.Node
	// Links injects transport faults (loss, duplication, whole-beat
	// delays, inbox reordering, partitions) into honest-destination
	// links, per the schedule's pure verdicts. Nil means an ideal
	// network. Three link classes are exempt, matching the model and the
	// networked runtime: self-links (a node's loopback is not a wire),
	// links into faulty nodes (the rushing adversary's taps are ideal
	// private channels — the intercept phase stays pre-fault), and
	// phantom injections (they model the network's own garbage, not
	// traffic). Message metrics still count faulted sends: they tally
	// what protocols emit, not what the wire loses.
	Links faultnet.Schedule
	// Metrics, when non-nil, attaches the engine to an observability
	// registry: beat, message, byte and pool-recycle counters accumulate
	// there as the engine steps (series names in PERF.md). Metrics never
	// feed back into behavior — an instrumented run is byte-identical to
	// a nil-registry run (the instrumented-vs-nil differential harness
	// pins it) — and the nil default costs one branch per beat. Engines
	// sharing a registry (tenants, restarted clusters) accumulate into
	// the same series.
	Metrics *obs.Registry
}

// engineMetrics is the engine's handle bundle plus the cumulative
// values already flushed, so each beat adds exact deltas even though
// several engines may share the registry's series.
type engineMetrics struct {
	beats, honestMsgs, faultyMsgs, honestBytes, poolRecycled *obs.Counter

	lastHonestMsgs, lastFaultyMsgs, lastHonestBytes uint64
}

// newEngineMetrics registers the engine series on r (nil r returns
// nil: the un-instrumented fast path).
func newEngineMetrics(r *obs.Registry) *engineMetrics {
	if r == nil {
		return nil
	}
	return &engineMetrics{
		beats:        r.Counter("ssbyz_engine_beats_total", "Lockstep beats executed by the engine."),
		honestMsgs:   r.Counter("ssbyz_engine_honest_msgs_total", "Messages emitted by honest nodes (broadcast counts as N)."),
		faultyMsgs:   r.Counter("ssbyz_engine_faulty_msgs_total", "Messages emitted by adversary-controlled nodes."),
		honestBytes:  r.Counter("ssbyz_engine_honest_bytes_total", "Wire-encoded bytes of honest traffic (requires Config.CountBytes)."),
		poolRecycled: r.Counter("ssbyz_engine_pool_recycled_total", "Beat-scoped leases, of every kind, recycled by engine-owned pools."),
	}
}

// Engine simulates one cluster. Create with New, then call Step (or Run)
// and inspect node protocols via Node.
type Engine struct {
	cfg    Config
	nodes  []proto.Protocol // all n, including faulty (adversary's copies)
	faulty []int
	isBad  []bool
	adv    adversary.Adversary
	advCtx *adversary.Context
	beat   uint64
	sched  *Scheduler
	met    *engineMetrics

	// The per-node phase functions, bound once in New so a beat's
	// fan-outs allocate nothing.
	composeFn, deliverFn, countFn func(ws *WorkerScratch, i int)

	// pools[i] is node i's env pool (pools is nil when pooling is off;
	// with Config.Pools, the owner's pools). Compose paths lease from
	// their node's pool, and so does the engine: node i's inbox comes
	// from pools[i], the adversary's intercept set and its output
	// (adversary.Context.Pool) from the first faulty node's. The engine recycles the pools it owns (ownPools) after the
	// Deliver phase, when the beat's messages are dead per the
	// proto.Message lifetime contract. Pools are keyed by node — not by
	// scheduler worker — so the reuse pattern, hence every seeded run, is
	// identical at every worker count.
	pools    []*pool.Node
	ownPools bool

	scrambleRng *rand.Rand
	phantoms    []proto.Recv

	// delayed holds fault-delayed deliveries keyed by due beat. Entries
	// carry proto.Clone copies (the pooled originals die at the sending
	// beat's recycle phase — this queue is the engine's side of the
	// message-lifetime ownership boundary) plus the ordering key the
	// networked runtime derives from frame headers, so both stacks slot
	// late messages into inboxes identically.
	delayed map[uint64][]delayedRecv

	// Per-beat scratch, reused across Steps so the lockstep loop is
	// allocation-free at steady state. Safe because Compose results are
	// consumed within the beat and Deliver must not retain its inbox
	// slice (see proto.Protocol): each inboxes[i] is a lease from node
	// i's pool, sized by inboxRoom.
	composed     [][]proto.Send
	inboxes      [][]proto.Recv
	inboxRoom    []int
	defaultSends []adversary.Sends
	byteCounts   []uint64

	// Metrics, cumulative across beats. Broadcast counts as N messages.
	HonestMsgs uint64
	FaultyMsgs uint64
	// HonestBytes is the cumulative wire size of honest traffic; only
	// tallied when Config.CountBytes is set.
	HonestBytes uint64
}

// New builds an engine. It panics on malformed configs: configs are
// constructed by tests and benchmarks, not from external input.
func New(cfg Config, factory NodeFactory) *Engine {
	if cfg.N <= 0 || cfg.F < 0 || cfg.F >= cfg.N {
		panic(fmt.Sprintf("sim: bad config n=%d f=%d", cfg.N, cfg.F))
	}
	e := &Engine{cfg: cfg, met: newEngineMetrics(cfg.Metrics)}
	e.faulty = append([]int(nil), cfg.Faulty...)
	if len(e.faulty) == 0 {
		for i := cfg.N - cfg.F; i < cfg.N; i++ {
			e.faulty = append(e.faulty, i)
		}
	}
	if len(e.faulty) != cfg.F {
		panic(fmt.Sprintf("sim: %d faulty ids for f=%d", len(e.faulty), cfg.F))
	}
	e.isBad = make([]bool, cfg.N)
	for _, id := range e.faulty {
		if id < 0 || id >= cfg.N {
			panic(fmt.Sprintf("sim: faulty id %d out of range", id))
		}
		e.isBad[id] = true
	}
	pooled, poison := ResolvePoolMode(cfg.Pool)
	if cfg.Pools != nil {
		// Externally owned pools: use them for the envs, own (and
		// recycle) nothing. The owner decided the pooling question.
		if len(cfg.Pools) != cfg.N {
			panic(fmt.Sprintf("sim: %d external pools for n=%d", len(cfg.Pools), cfg.N))
		}
		e.pools = cfg.Pools
	} else if pooled {
		e.pools = make([]*pool.Node, cfg.N)
		for i := range e.pools {
			e.pools[i] = &pool.Node{}
			e.pools[i].SetPoison(poison)
		}
		e.ownPools = true
	}
	e.nodes = make([]proto.Protocol, cfg.N)
	for i := 0; i < cfg.N; i++ {
		e.nodes[i] = factory(proto.Env{N: cfg.N, F: cfg.F, ID: i, Rng: rngFor(cfg.Seed, uint64(i)), Pool: e.pool(i)})
	}
	e.composed = make([][]proto.Send, cfg.N)
	e.inboxes = make([][]proto.Recv, cfg.N)
	e.inboxRoom = make([]int, cfg.N)
	e.advCtx = &adversary.Context{
		N: cfg.N, F: cfg.F,
		Faulty: append([]int(nil), e.faulty...),
		Rng:    rngFor(cfg.Seed, 1<<32),
		FaultyNode: func(id int) proto.Protocol {
			if id >= 0 && id < cfg.N && e.isBad[id] {
				return e.nodes[id]
			}
			return nil
		},
	}
	if len(e.faulty) > 0 {
		e.advCtx.Pool = e.pool(e.faulty[0])
	}
	if cfg.NewAdversary != nil {
		e.adv = cfg.NewAdversary(e.advCtx)
	} else {
		e.adv = adversary.Passive{}
	}
	e.sched = NewScheduler(cfg.Workers)
	e.composeFn = func(_ *WorkerScratch, i int) { e.ComposeNode(i) }
	e.deliverFn = func(_ *WorkerScratch, i int) { e.DeliverNode(i) }
	e.countFn = e.countNode
	e.scrambleRng = rngFor(cfg.Seed, 1<<33)
	if cfg.ScrambleStart {
		e.ScrambleHonest()
	}
	return e
}

// ResolvePoolMode reports what a PoolMode setting means: whether
// payloads are pooled at all and whether recycled buffers are poisoned.
// Exported for the networked runtime and the multi-tenant engine, which
// manage pools of their own under the same setting.
func ResolvePoolMode(m PoolMode) (pooled, poison bool) {
	return m != PoolOff, m == PoolPoison
}

// NodeRng returns the random stream node id derives from seed — the
// exact stream New hands that node's proto.Env. Exported so the
// networked runtime (package noderuntime) builds protocol instances
// that replay this engine bit for bit.
func NodeRng(seed int64, id int) *rand.Rand { return rngFor(seed, uint64(id)) }

// AdversaryRng returns the adversary's stream for seed (see NodeRng).
func AdversaryRng(seed int64) *rand.Rand { return rngFor(seed, 1<<32) }

// ScrambleRng returns the state-scrambling stream for seed (see
// NodeRng).
func ScrambleRng(seed int64) *rand.Rand { return rngFor(seed, 1<<33) }

// Beat returns the next beat number to execute (the count of completed
// beats).
func (e *Engine) Beat() uint64 { return e.beat }

// N returns the cluster size.
func (e *Engine) N() int { return e.cfg.N }

// F returns the Byzantine bound.
func (e *Engine) F() int { return e.cfg.F }

// Node returns node i's protocol instance (faulty nodes return the
// adversary's honest-copy instance).
func (e *Engine) Node(i int) proto.Protocol { return e.nodes[i] }

// IsFaulty reports whether node i is adversary-controlled.
func (e *Engine) IsFaulty(i int) bool { return e.isBad[i] }

// HonestIDs returns the non-faulty node ids in ascending order.
func (e *Engine) HonestIDs() []int {
	out := make([]int, 0, e.cfg.N-e.cfg.F)
	for i := 0; i < e.cfg.N; i++ {
		if !e.isBad[i] {
			out = append(out, i)
		}
	}
	return out
}

// Step executes one beat as three explicit phases. Compose and Deliver
// are per-node independent (the paper's beat system exchanges all of a
// round's messages between them), so both fan out over the scheduler's
// workers; the rushing adversary, the metrics and the inbox merge run
// sequentially in between, which keeps any worker count byte-identical
// to the sequential engine. The per-beat slices live on the engine and
// are reused, so a steady-state beat allocates only what the protocols
// themselves allocate.
func (e *Engine) Step() {
	e.sched.ForEach(e.cfg.N, e.composeFn)
	e.ExchangePhase()
	e.sched.ForEach(e.cfg.N, e.deliverFn)
	e.FinishBeat()
}

// The phased stepping API below decomposes Step so an external driver
// — the multi-tenant engine — can interleave many engines' phases
// under ONE scheduler: fan ComposeNode over (tenant × node) work
// units, fan ExchangePhase over tenants, fan DeliverNode over units,
// recycle, then FinishBeat.
// Calling, for every i, ComposeNode(i), then ExchangePhase(), then
// DeliverNode(i) for every i, then FinishBeat() is byte-identical to
// one Step(): Step is exactly that sequence run on the engine's own
// scheduler.

// ComposeNode runs node i's compose for the current beat (the parallel
// part of the compose phase). Safe to call concurrently for distinct
// i; the caller must complete all N calls before ExchangePhase.
func (e *Engine) ComposeNode(i int) {
	e.composed[i] = e.nodes[i].Compose(e.beat)
}

// ExchangePhase runs the sequential middle of the beat: the rushing
// adversary's intercept, the deterministic inbox merge, and byte
// accounting when configured. All ComposeNode calls must have
// completed first.
func (e *Engine) ExchangePhase() {
	faultySends := e.interceptPhase(e.beat)
	e.mergeInboxes(e.beat, faultySends)
	if e.cfg.CountBytes {
		e.countBytes()
	}
}

// DeliverNode runs node i's deliver for the current beat (the parallel
// part of the deliver phase). Safe to call concurrently for distinct
// i, after ExchangePhase.
func (e *Engine) DeliverNode(i int) {
	e.nodes[i].Deliver(e.beat, e.inboxes[i])
}

// FinishBeat recycles the engine's own pools (externally supplied
// pools are the owner's to recycle, after all DeliverNode calls) — every
// message of the beat is dead here — and advances the beat counter. The
// engine's own references to the beat's sends and inboxes are dropped
// alongside, so its scratch pins nothing between beats.
func (e *Engine) FinishBeat() {
	e.recyclePhase()
	clear(e.composed)
	clear(e.inboxes)
	clear(e.defaultSends)
	e.beat++
	e.flushMetrics()
}

// pool returns node i's env pool (nil when pooling is off).
func (e *Engine) pool(i int) *pool.Node {
	if e.pools == nil {
		return nil
	}
	return e.pools[i]
}

// flushMetrics adds this beat's metric deltas to the attached registry
// (no-op without one). It runs after the beat's phases, so a scrape
// between beats always reads a phase-consistent cut.
func (e *Engine) flushMetrics() {
	m := e.met
	if m == nil {
		return
	}
	m.beats.Inc()
	m.honestMsgs.Add(e.HonestMsgs - m.lastHonestMsgs)
	m.lastHonestMsgs = e.HonestMsgs
	m.faultyMsgs.Add(e.FaultyMsgs - m.lastFaultyMsgs)
	m.lastFaultyMsgs = e.FaultyMsgs
	m.honestBytes.Add(e.HonestBytes - m.lastHonestBytes)
	m.lastHonestBytes = e.HonestBytes
}

// recyclePhase ends every lease of this beat — the nodes' Compose and
// Deliver leases and the engine's inboxes and intercept set — node by
// node. It runs strictly after the Deliver phase barrier (delivered
// messages may be read concurrently by several nodes' Deliver calls
// right up to it), on the engine's goroutine: with every kind a bump
// allocator, a Recycle costs O(kinds) outside poison mode, less than a
// fan-out would.
func (e *Engine) recyclePhase() {
	if !e.ownPools {
		return
	}
	for _, p := range e.pools {
		if e.met != nil {
			e.met.poolRecycled.Add(uint64(p.Leased()))
		}
		p.Recycle()
	}
}

// interceptPhase: the rushing adversary sees honest traffic addressed to
// faulty nodes (private channels: honest-to-honest unicast is invisible)
// and decides the faulty nodes' actual messages. Adversaries are
// stateful and run on the engine's goroutine.
func (e *Engine) interceptPhase(beat uint64) []adversary.Sends {
	var visible []adversary.Intercept
	if len(e.faulty) > 0 {
		count := 0
		e.intercepts(func(adversary.Intercept) { count++ })
		visible = adversary.Intercepts(e.advCtx.Pool, count)[:0]
		e.intercepts(func(x adversary.Intercept) { visible = append(visible, x) })
	}
	if e.defaultSends == nil {
		e.defaultSends = make([]adversary.Sends, len(e.faulty))
	}
	defaultSends := e.defaultSends
	for k, id := range e.faulty {
		defaultSends[k] = adversary.Sends{From: id, Out: e.composed[id]}
	}
	return e.adv.Act(beat, defaultSends, visible)
}

// intercepts calls visit for every honest send a faulty node receives,
// in node and send order — the adversary's intercept set, which
// interceptPhase leases from the adversary's pool, the first faulty
// node's.
func (e *Engine) intercepts(visit func(adversary.Intercept)) {
	n := e.cfg.N
	for i, sends := range e.composed {
		if e.isBad[i] {
			continue
		}
		for _, s := range sends {
			if s.To == proto.Broadcast {
				for _, bad := range e.faulty {
					visit(adversary.Intercept{From: i, To: bad, Msg: s.Msg})
				}
			} else if s.To >= 0 && s.To < n && e.isBad[s.To] {
				visit(adversary.Intercept{From: i, To: s.To, Msg: s.Msg})
			}
		}
	}
}

// delayedRecv is one fault-delayed delivery in flight. The sort key
// (sendBeat, badFrom, from, seq) is the canonical late-arrival order
// both stacks share: the networked runtime reads the same fields out of
// frame headers.
type delayedRecv struct {
	to       int
	sendBeat uint64
	badFrom  bool
	from     int
	seq      uint32
	recv     proto.Recv
}

// mergeInboxes deterministically builds every node's inbox — phantoms,
// then fault-delayed messages due this beat (in canonical late-arrival
// order), then honest sends in node order, then the adversary's sends
// in returned order — applies the link-fault schedule, and tallies the
// message metrics. Malformed destinations (negative non-broadcast or
// >= n) are dropped without delivery or tally, whether honest or
// adversarial.
func (e *Engine) mergeInboxes(beat uint64, faultySends []adversary.Sends) {
	n := e.cfg.N
	due := e.delayed[beat]
	e.leaseInboxes(due, faultySends)
	inboxes := e.inboxes
	if len(e.phantoms) > 0 {
		for i := 0; i < n; i++ {
			if !e.isBad[i] {
				inboxes[i] = append(inboxes[i], e.phantoms...)
			}
		}
		e.phantoms = nil
	}
	if len(due) > 0 {
		sort.SliceStable(due, func(a, b int) bool {
			x, y := due[a], due[b]
			if x.sendBeat != y.sendBeat {
				return x.sendBeat < y.sendBeat
			}
			if x.badFrom != y.badFrom {
				return y.badFrom
			}
			// Honest seqs are per-sender, adversary seqs are a single
			// global sequence — exactly what frame headers carry.
			if !x.badFrom && x.from != y.from {
				return x.from < y.from
			}
			return x.seq < y.seq
		})
		for _, d := range due {
			inboxes[d.to] = append(inboxes[d.to], d.recv)
		}
		delete(e.delayed, beat)
	}
	deliver := func(from, to int, m proto.Message, seq uint32) {
		// The schedule rules on honest-destination, non-self links only;
		// see Config.Links for why the other classes are exempt.
		if e.cfg.Links != nil && from != to && !e.isBad[to] {
			v := e.cfg.Links.Verdict(beat, from, to)
			if v.Drop {
				return
			}
			if v.Delay > 0 {
				e.delayLink(beat, from, to, seq, m, v)
				return
			}
			inboxes[to] = append(inboxes[to], proto.Recv{From: from, Msg: m})
			if v.Dup {
				inboxes[to] = append(inboxes[to], proto.Recv{From: from, Msg: m})
			}
			return
		}
		inboxes[to] = append(inboxes[to], proto.Recv{From: from, Msg: m})
	}
	fanout := func(from int, s proto.Send, seq uint32, honest bool) {
		count := uint64(1)
		if s.To == proto.Broadcast {
			count = uint64(n)
			for to := 0; to < n; to++ {
				deliver(from, to, s.Msg, seq)
			}
		} else if s.To >= 0 && s.To < n {
			deliver(from, s.To, s.Msg, seq)
		} else {
			return
		}
		if honest {
			e.HonestMsgs += count
		} else {
			e.FaultyMsgs += count
		}
	}
	for i := 0; i < n; i++ {
		if e.isBad[i] {
			continue
		}
		for seq, s := range e.composed[i] {
			fanout(i, s, uint32(seq), true)
		}
	}
	// The adversary's sends number sequentially across all its nodes in
	// Act-return order — the same global sequence the networked
	// adversary host stamps into its frames.
	advSeq := uint32(0)
	for _, fs := range faultySends {
		if fs.From < 0 || fs.From >= n || !e.isBad[fs.From] {
			continue // identity cannot be forged (Definition 2.2)
		}
		for _, s := range fs.Out {
			fanout(fs.From, s, advSeq, false)
			advSeq++
		}
	}
	e.shuffleInboxes(beat)
}

// leaseInboxes leases every node's empty inbox for this beat from the
// node's pool, with room for the most mergeInboxes can append: the
// phantoms, the delayed deliveries due and every send addressed to the
// node, twice when a link schedule may duplicate it.
func (e *Engine) leaseInboxes(due []delayedRecv, faultySends []adversary.Sends) {
	n := e.cfg.N
	room := e.inboxRoom
	clear(room)
	copies := 1
	if e.cfg.Links != nil {
		copies = 2
	}
	for _, d := range due {
		room[d.to]++
	}
	all := 0
	count := func(sends []proto.Send) {
		for _, s := range sends {
			if s.To == proto.Broadcast {
				all += copies
			} else if s.To >= 0 && s.To < n {
				room[s.To] += copies
			}
		}
	}
	for i, sends := range e.composed {
		if !e.isBad[i] {
			count(sends)
		}
	}
	for _, fs := range faultySends {
		if fs.From >= 0 && fs.From < n && e.isBad[fs.From] {
			count(fs.Out)
		}
	}
	for i := range e.inboxes {
		r := room[i] + all
		if !e.isBad[i] {
			r += len(e.phantoms)
		}
		e.inboxes[i] = proto.Recvs(e.pool(i), r)[:0]
	}
}

// delayLink queues a fault-delayed delivery. The message is deep-copied
// (proto.Clone) because the original's pooled payload is recycled when
// this beat ends; unregistered message types (test doubles) are never
// pooled, so they are retained as-is.
func (e *Engine) delayLink(beat uint64, from, to int, seq uint32, m proto.Message, v faultnet.Verdict) {
	c, err := proto.Clone(m)
	if err != nil {
		c = m
	}
	if e.delayed == nil {
		e.delayed = make(map[uint64][]delayedRecv)
	}
	due := beat + v.Delay
	d := delayedRecv{
		to: to, sendBeat: beat, badFrom: e.isBad[from], from: from, seq: seq,
		recv: proto.Recv{From: from, Msg: c},
	}
	e.delayed[due] = append(e.delayed[due], d)
	if v.Dup {
		e.delayed[due] = append(e.delayed[due], d)
	}
}

// shuffleInboxes applies the schedule's per-node inbox permutations —
// the reordering fault. faultnet.ShuffleOrder is shared with the
// networked runtime, so both stacks permute identically.
func (e *Engine) shuffleInboxes(beat uint64) {
	if e.cfg.Links == nil {
		return
	}
	for i := 0; i < e.cfg.N; i++ {
		if e.isBad[i] || len(e.inboxes[i]) < 2 {
			continue
		}
		seed, ok := e.cfg.Links.Shuffle(beat, i)
		if !ok {
			continue
		}
		order := faultnet.ShuffleOrder(seed, len(e.inboxes[i]))
		tmp := make([]proto.Recv, len(order))
		for k, j := range order {
			tmp[k] = e.inboxes[i][j]
		}
		copy(e.inboxes[i], tmp)
	}
}

// countBytes tallies the wire size of delivered honest traffic into
// HonestBytes (experiment E8). Encoding is the expensive part, so it
// fans out over nodes with per-worker append buffers; the per-node
// subtotals are summed in index order so the cumulative metric is
// deterministic.
func (e *Engine) countBytes() {
	if e.byteCounts == nil {
		e.byteCounts = make([]uint64, e.cfg.N)
	}
	e.sched.ForEach(e.cfg.N, e.countFn)
	for _, c := range e.byteCounts {
		e.HonestBytes += c
	}
}

// countNode sets node i's byte subtotal: the wire size of its honest
// sends, a broadcast counted n times. Dropped sends (malformed
// destinations) are not tallied, matching mergeInboxes.
func (e *Engine) countNode(ws *WorkerScratch, i int) {
	n := e.cfg.N
	e.byteCounts[i] = 0
	if e.isBad[i] {
		return
	}
	var sum uint64
	for _, s := range e.composed[i] {
		mult := uint64(1)
		if s.To == proto.Broadcast {
			mult = uint64(n)
		} else if s.To < 0 || s.To >= n {
			continue // dropped, never delivered
		}
		buf, err := wire.AppendTo(ws.Buf[:0], s.Msg)
		ws.Buf = buf[:0]
		if err != nil {
			continue // unregistered types count as size 0, as before
		}
		sum += mult * uint64(len(buf))
	}
	e.byteCounts[i] = sum
}

// Run executes the given number of beats.
func (e *Engine) Run(beats int) {
	for i := 0; i < beats; i++ {
		e.Step()
	}
}

// ScrambleHonest models a transient fault hitting every honest node:
// each node implementing proto.Scrambler gets its state overwritten with
// arbitrary values.
func (e *Engine) ScrambleHonest() {
	for i := 0; i < e.cfg.N; i++ {
		if e.isBad[i] {
			continue
		}
		if s, ok := e.nodes[i].(proto.Scrambler); ok {
			s.Scramble(e.scrambleRng)
		}
	}
}

// InjectPhantoms queues stale garbage messages: at the next Step, every
// honest node additionally receives each message attributed to a random
// sender. This models the network's own transient faults — messages left
// in buffers from before the network became coherent (Definition 2.2's
// "phantom" messages, delivered one last time). The messages are
// retained until the next Step, so callers must pass messages they own
// (hand-built values or proto.Clone copies), never live beat payloads.
func (e *Engine) InjectPhantoms(msgs []proto.Message) {
	for _, m := range msgs {
		e.phantoms = append(e.phantoms, proto.Recv{From: e.scrambleRng.Intn(e.cfg.N), Msg: m})
	}
}
