// Package noderuntime is the event-driven networked runtime: each node
// an independent event loop around a net.Endpoint, exchanging
// wire-framed protocol messages with no global clock — beats are
// derived from frame arrival. It is the asynchronous counterpart of
// the lockstep engine (package sim), which stays the oracle: in
// Lockstep mode a cluster over the in-process transport replays the
// engine bit for bit (the differential harness proves it, fault
// schedule and all), while Real mode trades that exactness for
// liveness on a genuinely faulty wire — quorum beat advancement,
// retransmission with jittered exponential backoff, catch-up after
// partitions, and crash/restart.
//
// The wire unit is the link-beat, as in the paper's model (at beat r, p
// sends q its beat-r messages): per beat a node sends every peer,
// itself included, ONE wire.KindBatch frame holding everything it has
// for that peer — n frames per node-beat, whatever the message and
// tenant counts (beatframe.go). Three rules follow from it:
//
//   - Marker: there is none apart from the frame. The arrival of a
//     sender's beat-r frame IS its statement that its beat-r traffic is
//     complete, so a frame goes out even when it is empty, and doubles
//     as the idle-peer heartbeat.
//   - Completeness: a peer is complete for beat r once every part of
//     its beat-r frame has arrived (one part, unless the link-beat
//     outgrew a datagram). Lockstep advances on all n peers complete.
//     Real advances once every peer it has lately heard from is
//     complete, settles for a quorum of n-f after two retry intervals,
//     follows a quorum that is already further ahead, and falls back on
//     the beat timeout. A lost link-beat is recovered by pull, in one
//     round trip: a frame from a peer already past beat r, whose beat-r
//     frame is missing here, makes the node resend that peer its own
//     beat-r frame (the pull), and a peer's original frame from beat
//     r-1 makes it resend that peer its beat-r-1 frame (the answer: the
//     peer is stuck one beat behind). Each fires at most once per (peer,
//     beat). The retry timer stays the fallback when a pull or an answer
//     is itself lost: on each tick the node retransmits its n frames,
//     and the previous beat's to peers that may still be stuck there.
//   - Dedup: receivers key frames by (From, Beat, part, Copy), first
//     arrival wins — a retransmission delivers once, a fault-injected
//     Copy+1 delivers its messages twice, as the engine's dup does.
//
// The pool contract crosses the ownership boundary twice per beat, on
// the node's one pool: a node's composed messages are serialized to
// frames (which own their bytes), so they are dead once encoded, and a
// beat's received messages decode into leases from the same pool
// (wire.Decoder), dead once every tenant's Deliver is done. One Recycle
// before the next beat's Compose ends both, so a message is valid for
// its beat and whatever keeps one clones it. Poison mode verifies no
// path cheats: the Recycle scribbles every lease.
package noderuntime

import (
	"math/rand"
	"slices"
	"sync"
	"time"

	"ssbyzclock/internal/faultnet"
	"ssbyzclock/internal/net"
	"ssbyzclock/internal/pool"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/wire"
)

// Mode selects how a node decides a beat is complete.
type Mode uint8

const (
	// Lockstep advances once all n peers' frames for the beat are in —
	// the mode whose executions are provably equivalent to the engine.
	Lockstep Mode = iota
	// Real advances on the frames of a quorum of n-f peers or a beat
	// timeout, with retransmission and catch-up. Live on lossy,
	// partitioned networks; equivalent to the engine only statistically.
	Real
)

// Timing tunes Real mode. The zero value selects defaults suited to
// in-process and loopback tests.
type Timing struct {
	// BeatTimeout advances the beat even without a quorum.
	BeatTimeout time.Duration
	// RetryMin seeds the jittered exponential backoff that governs
	// retransmission of the current beat's frames; RetryMax caps it.
	RetryMin, RetryMax time.Duration
}

func (t Timing) withDefaults() Timing {
	if t.BeatTimeout <= 0 {
		t.BeatTimeout = time.Second
	}
	if t.RetryMin <= 0 {
		t.RetryMin = 20 * time.Millisecond
	}
	if t.RetryMax <= 0 {
		t.RetryMax = 250 * time.Millisecond
	}
	return t
}

// NodeConfig describes one runtime node.
type NodeConfig struct {
	N, F int
	ID   int
	// Faulty marks the adversary's ids. The runtime uses it as a replay
	// determinism device only — it orders faulty senders' messages by
	// their global sequence, as the engine does, and never to change
	// protocol behavior (honest nodes cannot know who is faulty).
	Faulty []bool
	Mode   Mode
	// Endpoint carries the node's traffic; wrap it with faultnet.Wrap to
	// put the node on a faulty network.
	Endpoint net.Endpoint
	// Links is consulted for inbox reordering only (Shuffle); drop, dup
	// and delay verdicts are injected sender-side by the wrapper, whose
	// per-(beat, from, to) verdicts hit a link-beat's one frame exactly
	// as they would each of its messages.
	Links faultnet.Schedule
	// Protocols are the tenants the node hosts behind its one endpoint,
	// one instance each (a single-instance node has one). The loop is
	// the same for any count: a link-beat's one frame carries every
	// tenant's messages, and a received frame expands into per-tenant
	// inboxes ordered exactly as the lockstep engine orders them. Pool,
	// when non-nil, is the pool all their beat-scoped memory leases from,
	// the decoded inboxes included (recycled once per beat, before
	// Compose).
	Protocols []proto.Protocol
	Pool      *pool.Node
	// OnBeat, when set, observes each tenant after each delivered beat,
	// from the node's own goroutine.
	OnBeat func(tenant int, beat uint64, p proto.Protocol)
	// MaxBeats stops the loop after that many beats (0 = run until
	// Stop).
	MaxBeats uint64
	Timing   Timing
	// RetrySeed seeds backoff jitter (Real mode).
	RetrySeed int64
	// Metrics, when non-nil, instruments the loop (beat rate, quorum
	// waits, retries, catch-up). It never feeds back into behavior; nil
	// costs one branch per event.
	Metrics *NodeMetrics
}

// Window is how many beats ahead of the current one a node buffers
// frames for; anything outside [cur, cur+Window] is dropped. Together
// with maxPerSender it bounds a node's memory under partitions and
// Byzantine floods. It must exceed any fault schedule's MaxDelay.
const Window = 8

// maxPerSender caps buffered frames per (delivery beat, sender): an
// honest sender's link-beat is a part or two (times its fault-injected
// copies), so the cap only bites floods.
const maxPerSender = 4096

// Node is one event-loop node. Create with NewNode, then Start; Stop
// (or MaxBeats) ends the loop and Wait joins it.
type Node struct {
	cfg NodeConfig

	cur uint64
	out beatOut
	// last and prev are the current and the previous beat's frames, kept
	// for retransmission.
	last, prev []linkFrame
	win        *beatWindow
	inbox      *inboxBuilder
	peerAt     []uint64 // highest beat seen per peer (catch-up)
	// pulled[p] and answered[p] are 1 + the beat at which pull last
	// resent to peer p by its first and its second rule (0 = never).
	pulled, answered []uint64
	// quorum is quorumBeat's answer, recomputed (sorting a copy of
	// peerAt in sorted) only when a peerAt entry rises.
	quorum uint64
	sorted []uint64
	rng    *rand.Rand
	// deadline and retry are Real mode's beat-timeout and retry timers,
	// made on first use and re-armed every beat.
	deadline, retry *time.Timer

	done chan struct{}
	stop sync.Once
	wg   sync.WaitGroup
}

// NewNode builds a node; Start launches its loop.
func NewNode(cfg NodeConfig) *Node {
	cfg.Timing = cfg.Timing.withDefaults()
	return &Node{
		cfg:      cfg,
		out:      beatOut{n: cfg.N},
		win:      newBeatWindow(cfg.N),
		inbox:    newInboxBuilder(cfg.ID, len(cfg.Protocols), cfg.Faulty, cfg.Links, cfg.Pool),
		peerAt:   make([]uint64, cfg.N),
		pulled:   make([]uint64, cfg.N),
		answered: make([]uint64, cfg.N),
		sorted:   make([]uint64, cfg.N),
		rng:      rand.New(rand.NewSource(cfg.RetrySeed ^ int64(cfg.ID)<<20 ^ 0x5bd1e995)),
		done:     make(chan struct{}),
	}
}

// Beat returns the number of completed beats (racy while running; read
// it from OnBeat or after Wait).
func (nd *Node) Beat() uint64 { return nd.cur }

// Start launches the event loop.
func (nd *Node) Start() {
	nd.wg.Add(1)
	go nd.run()
}

// Stop asks the loop to exit; Wait joins it.
func (nd *Node) Stop() { nd.stop.Do(func() { close(nd.done) }) }

// Wait blocks until the loop has exited.
func (nd *Node) Wait() { nd.wg.Wait() }

func (nd *Node) run() {
	defer nd.wg.Done()
	for nd.cfg.MaxBeats == 0 || nd.cur < nd.cfg.MaxBeats {
		r := nd.cur
		nd.sendBeat(r)
		if !nd.await(r) {
			return
		}
		nd.deliverBeat(r)
		nd.win.drop(r)
		nd.cur++
		nd.cfg.Metrics.beatDone()
		if nd.cfg.Mode == Real {
			nd.maybeJump()
		}
	}
}

// sendBeat recycles the node's pool — the previous beat's composed and
// decoded messages are dead — then composes beat r for every tenant,
// encodes each send once (the encodings own their bytes: this is the
// ownership boundary), and transmits one frame to every peer, itself
// included: all delivery, even loopback, crosses the wire. A message's
// Seq is its tenant-local compose index.
func (nd *Node) sendBeat(r uint64) {
	nd.cfg.Pool.Recycle()
	nd.out.reset()
	for t, p := range nd.cfg.Protocols {
		for seq, s := range p.Compose(r) {
			nd.out.add(t, s.To, uint32(seq), s.Msg)
		}
	}
	nd.last, nd.prev = nd.prev[:0], nd.last
	hdr := wire.Frame{Kind: wire.KindBatch, From: nd.cfg.ID, Beat: r, DeliveryBeat: r}
	nd.last = nd.out.linkFrames(nd.last, hdr, nil)
	nd.transmit()
}

// transmit sends the current beat's frames (first time or retry; the
// receivers' dedup makes retries idempotent).
func (nd *Node) transmit() {
	for _, lf := range nd.last {
		nd.cfg.Endpoint.Send(lf.to, lf.data)
		nd.cfg.Metrics.frameSent()
	}
}

// retransmit is a retry tick: the current beat's frames again, and the
// previous beat's to every peer not yet heard from at the current one.
// Such a peer may be held up in that beat by the loss of this node's
// frame. pull resends it as soon as the peer's own frames show it stuck
// there; the tick covers a pull or an answer that was itself lost.
func (nd *Node) retransmit() {
	nd.cfg.Metrics.retransmit()
	nd.transmit()
	for _, lf := range nd.prev {
		if nd.peerAt[lf.to] < nd.cur {
			nd.cfg.Endpoint.Send(lf.to, lf.data)
			nd.cfg.Metrics.frameSent()
		}
	}
}

// await blocks until beat r is complete per the node's mode (or Stop).
func (nd *Node) await(r uint64) bool {
	if nd.cfg.Mode == Lockstep {
		for nd.completePeers(r) < nd.cfg.N {
			select {
			case <-nd.done:
				return false
			case p, ok := <-nd.cfg.Endpoint.Recv():
				if !ok {
					return false
				}
				nd.ingest(p)
			}
		}
		return true
	}
	// Real mode: every live peer complete; or, after two retry ticks, a
	// quorum of complete peers; or a quorum already further ahead; with
	// retransmission while waiting and a hard beat timeout so a
	// partitioned minority still creeps forward (bounded memory either
	// way — see Window). A link-beat is all-or-nothing, so leaving on the
	// bare quorum would cost the node a live peer's whole beat whenever a
	// frame is late or lost; two ticks outlast that peer's first, which
	// resends it (see retransmit). Waiting only for peers heard from
	// lately keeps silent ones from taxing every beat.
	var waitStart time.Time
	if nd.cfg.Metrics != nil {
		waitStart = time.Now()
	}
	rearm(&nd.deadline, nd.cfg.Timing.BeatTimeout)
	backoff := nd.cfg.Timing.RetryMin
	rearm(&nd.retry, nd.jitter(backoff))
	ticks := 0
	for {
		done := nd.completePeers(r)
		if done >= nd.cfg.N-nd.cfg.F && (ticks >= 2 || done >= nd.livePeers(r)) || nd.quorumBeat() > r {
			nd.cfg.Metrics.observeWait(waitStart)
			return true
		}
		select {
		case <-nd.done:
			return false
		case p, ok := <-nd.cfg.Endpoint.Recv():
			if !ok {
				return false
			}
			nd.ingest(p)
		case <-nd.retry.C:
			ticks++
			nd.retransmit()
			if backoff *= 2; backoff > nd.cfg.Timing.RetryMax {
				backoff = nd.cfg.Timing.RetryMax
			}
			nd.retry.Reset(nd.jitter(backoff)) // fired and drained: safe to Reset
		case <-nd.deadline.C:
			nd.cfg.Metrics.timeout()
			nd.cfg.Metrics.observeWait(waitStart)
			return true
		}
	}
}

func (nd *Node) jitter(d time.Duration) time.Duration {
	return d/2 + time.Duration(nd.rng.Int63n(int64(d)))
}

// rearm starts *t to fire after d, making it on first use. A timer left
// armed by an earlier beat is stopped and its channel drained before the
// Reset — the discipline timers need under go.mod's go 1.22, where a
// stale tick would otherwise survive into the new beat.
func rearm(t **time.Timer, d time.Duration) {
	if *t == nil {
		*t = time.NewTimer(d)
		return
	}
	if !(*t).Stop() {
		select {
		case <-(*t).C:
		default:
		}
	}
	(*t).Reset(d)
}

// completePeers counts the senders whose beat-r frame has arrived
// whole. (A fault-delayed frame counts at its send beat, so delayed
// messages don't stall their sender's completeness.)
func (nd *Node) completePeers(r uint64) int { return nd.win.slot(r).complete }

// livePeers counts the peers whose newest frame is from beat r-1 or
// later: in step with this node, so their beat-r frame is worth a
// retry interval's wait.
func (nd *Node) livePeers(r uint64) int {
	n := 0
	for _, at := range nd.peerAt {
		if at+1 >= r {
			n++
		}
	}
	return n
}

// quorumBeat is the highest beat that n-f peers (self included) have
// reached, judged by the newest frame seen from each — the catch-up
// signal after a heal. await asks on every event, so the answer is kept
// by raisePeer, not computed here.
func (nd *Node) quorumBeat() uint64 { return nd.quorum }

// raisePeer records that peer from has reached beat b. The quorum beat
// is an order statistic over n small integers that moves only when an
// entry rises, so only then is it recomputed.
func (nd *Node) raisePeer(from int, b uint64) {
	if b <= nd.peerAt[from] {
		return
	}
	nd.peerAt[from] = b
	copy(nd.sorted, nd.peerAt)
	slices.Sort(nd.sorted)
	nd.quorum = nd.sorted[nd.cfg.F] // the (n-f)-th largest
}

// maybeJump fast-forwards a node a quorum has left behind: skipped
// beats get no compose or delivery (the wire lost them; the protocols'
// self-stabilization owns recovery), which resynchronizes after a
// partition heals without replaying the gap.
func (nd *Node) maybeJump() {
	if q := nd.quorumBeat(); q > nd.cur+1 {
		for b := nd.cur; b < q && b <= nd.cur+Window; b++ {
			nd.win.drop(b)
		}
		nd.cfg.Metrics.jump(q - nd.cur)
		nd.cur = q
		nd.last = nd.last[:0] // frames of a beat nobody is in any more
	}
}

// ingest buffers one received packet: beat frames only, whose header
// sender must be the one the transport authenticated; the window does
// the dedup and the bounding. In Real mode the frame may also be
// evidence of a lost link-beat (see pull).
func (nd *Node) ingest(p net.Packet) {
	f, err := wire.DecodeFrame(p.Data)
	if err != nil || f.Kind != wire.KindBatch || f.From >= nd.cfg.N || f.From != p.From {
		return // noise, or a forged sender
	}
	nd.raisePeer(f.From, f.Beat)
	nd.win.add(nd.cur, f)
	if nd.cfg.Mode == Real {
		nd.pull(f)
	}
}

// pull recovers a lost link-beat in one round trip, from what peer p's
// frame f says about where p is:
//
//   - p is past the current beat, yet its current-beat link-beat is not
//     complete here: that link-beat was lost. Resend p this node's own
//     current-beat frames; they are the request.
//   - f is an original frame from one beat back: p is stuck there, short
//     of this node's previous link-beat (a request, or p's retry). Resend
//     p the previous beat's frames; they are the answer.
//
// Each rule fires at most once per (peer, beat), so no peer, Byzantine or
// not, draws more than two extra link-beats per beat from this node.
func (nd *Node) pull(f wire.Frame) {
	p, cur := f.From, nd.cur
	var frames []linkFrame
	switch {
	case f.Beat > cur && nd.pulled[p] != cur+1 && !nd.win.slot(cur).whole(p):
		nd.pulled[p] = cur + 1
		nd.cfg.Metrics.pull()
		frames = nd.last
	case f.Beat+1 == cur && f.Copy == 0 && nd.answered[p] != cur+1:
		nd.answered[p] = cur + 1
		nd.cfg.Metrics.pullAnswer()
		frames = nd.prev
	}
	for _, lf := range frames {
		if lf.to == p {
			nd.cfg.Endpoint.Send(p, lf.data)
			nd.cfg.Metrics.frameSent()
		}
	}
}

// deliverBeat hands every tenant its beat-r inbox, in the canonical
// order shared with sim.Engine (see inboxBuilder).
func (nd *Node) deliverBeat(r uint64) {
	nd.inbox.expand(nd.win.slot(r))
	for t, p := range nd.cfg.Protocols {
		p.Deliver(r, nd.inbox.tenant(t, r))
		if nd.cfg.OnBeat != nil {
			nd.cfg.OnBeat(t, r, p)
		}
	}
	nd.inbox.release()
}
