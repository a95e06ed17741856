package core

import (
	"math/rand"

	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/proto"
)

// Envelope child tags of ClockSync.
const (
	clockSyncChildA    = 0 // embedded ss-Byz-4-Clock
	clockSyncChildCoin = 1 // own ss-Byz-Coin-Flip pipeline (phase 3's rand)
	clockSyncChildMsg  = 2 // FullClockMsg / ProposeMsg / BitMsg
	clockSyncKids      = 3
)

// tally summarizes one beat's received ClockSync messages; each phase of
// the next beat consumes the part sent by its predecessor phase. Values
// are deduplicated per sender and validated before counting.
type tally struct {
	// fullClock counts per received full-clock value (phase-0 traffic).
	fullClock pairTally
	// propose counts per proposed value, excluding ⊥ (phase-1 traffic).
	propose pairTally
	// bits counts received 0s and 1s (phase-2 traffic).
	bits [2]int
}

// pairTally counts occurrences per value as a short (value, count) pair
// list. Deduplication bounds a beat's distinct values by n, so linear
// probing beats a map — and the pair slices are two small flat arrays
// instead of the several hundred resident bytes a hash map's buckets
// cost per tenant, which is what evicted the maps from this struct.
type pairTally struct {
	vals []uint64
	cnts []int
}

func (p *pairTally) reset() {
	p.vals = p.vals[:0]
	p.cnts = p.cnts[:0]
}

func (p *pairTally) inc(v uint64) {
	for i, x := range p.vals {
		if x == v {
			p.cnts[i]++
			return
		}
	}
	p.vals = append(p.vals, v)
	p.cnts = append(p.cnts, 1)
}

// set resets the tally to the single entry {v: cnt} (Scramble's
// arbitrary-state injection).
func (p *pairTally) set(v uint64, cnt int) {
	p.reset()
	p.vals = append(p.vals, v)
	p.cnts = append(p.cnts, cnt)
}

// get returns the count for v (0 when absent).
func (p *pairTally) get(v uint64) int {
	for i, x := range p.vals {
		if x == v {
			return p.cnts[i]
		}
	}
	return 0
}

// size returns the number of distinct counted values.
func (p *pairTally) size() int { return len(p.vals) }

// ClockSync is ss-Byz-Clock-Sync (Figure 4): the k-Clock algorithm for
// arbitrary k with constant expected convergence time and constant
// message overhead (Theorem 4). An embedded ss-Byz-4-Clock partitions
// beats into four phases; the full clock is incremented every beat and
// re-agreed once per 4-beat cycle via a Turpin–Coan-style
// broadcast/propose/vote exchange whose fallback is the common coin
// (Rabin-style randomized agreement).
type ClockSync struct {
	env proto.Env
	k   uint64
	a   *FourClock
	// pipe feeds phase 3's rand: an own ss-Byz-Coin-Flip pipeline under
	// LayoutPaper, a derived handle onto the shared pipeline otherwise.
	pipe coin.Feed
	// shared is the node's single coin pipeline when this stack runs
	// LayoutShared (Remark 4.1); ClockSync is the stack root and owns it.
	shared *coin.SharedPipeline

	fullClock uint64
	save      uint64
	// propose is the persistent phase-1 message slot: Compose rewrites it
	// and sends its address, so the beat's proposal needs no heap box.
	propose ProposeMsg

	// stale selects the E6 ablation: phase 3 falls back on the *previous*
	// beat's random bit, which the coin's recover round already made
	// public — so the adversary knows it when committing the phase-2 bit
	// votes, exactly the correlation Remark 3.1 warns against. The
	// published algorithm (stale=false) uses the bit produced by this
	// beat's coin step, committed one round after the votes.
	stale    bool
	staleBit byte

	prev tally // messages received last beat
	// phase is the Compose-time snapshot of clock(A) for the current
	// beat ("consider u.clock(A) at the beginning of the beat");
	// phaseOK is false while A is unconverged at this node.
	phase   uint64
	phaseOK bool

	// Per-beat scratch: the retired tally is recycled for the next beat's
	// counting, and the dedup bitmaps are reused across beats.
	spare                tally
	seenFC, seenP, seenB []bool
}

var (
	_ proto.Protocol    = (*ClockSync)(nil)
	_ proto.ClockReader = (*ClockSync)(nil)
	_ proto.Scrambler   = (*ClockSync)(nil)
)

// NewClockSync constructs ss-Byz-Clock-Sync for modulus k >= 1 over the
// given coin factory, under LayoutShared.
func NewClockSync(env proto.Env, k uint64, factory coin.Factory) *ClockSync {
	return NewClockSyncStale(env, k, factory, false)
}

// NewClockSyncStale additionally selects the stale-rand ablation variant
// (see the stale field); production users always want stale=false.
func NewClockSyncStale(env proto.Env, k uint64, factory coin.Factory, stale bool) *ClockSync {
	return NewClockSyncLayout(env, k, factory, stale, LayoutShared)
}

// NewClockSyncLayout additionally pins the coin layout. Under
// LayoutShared the stack's three coin consumers — the embedded 4-clock's
// A1 and A2 and this protocol's phase-3 rand — share one pipeline owned
// here (Remark 4.1); under LayoutPaper each runs its own, as in Figure 4.
func NewClockSyncLayout(env proto.Env, k uint64, factory coin.Factory, stale bool, l Layout) *ClockSync {
	if k == 0 {
		k = 1
	}
	supply, sp := newSupply(env, factory, l)
	c := &ClockSync{
		env:    env,
		k:      k,
		shared: sp,
		stale:  stale,
	}
	c.a = newFourClock(env, supply, "cs/4clock")
	c.pipe = supply.Feed(env, "cs")
	return c
}

// Compose implements proto.Protocol: one beat of A and of the coin
// pipeline, the full-clock increment (Figure 4 line 2), and the current
// phase's broadcast, computed from the previous beat's tally.
func (c *ClockSync) Compose(beat uint64) []proto.Send {
	pl := c.env.Pool
	out := proto.Wrap(pl, clockSyncChildA, c.a.Compose(beat), nil)
	out = proto.Wrap(pl, clockSyncChildCoin, c.pipe.Compose(beat), out)
	out = composeShared(pl, out, c.shared, beat)

	c.phase, c.phaseOK = c.a.Clock()
	c.staleBit = c.pipe.Bit() // the previous beat's (already public) bit

	// Line 2: increment every beat. The mod also normalizes any
	// transient-fault garbage left in fullClock.
	c.fullClock = (c.fullClock + 1) % c.k

	if !c.phaseOK {
		return out
	}
	quorum := c.env.Quorum()
	var msg proto.Message
	switch c.phase {
	case 0: // Block 3.a: broadcast the full clock.
		msg = FullClockMsg{V: c.fullClock}
	case 1: // Block 3.b: propose the quorum value seen in the previous beat.
		c.propose = ProposeMsg{Bot: true}
		for i, v := range c.prev.fullClock.vals {
			if c.prev.fullClock.cnts[i] >= quorum {
				c.propose = ProposeMsg{V: v}
				break
			}
		}
		msg = &c.propose
	case 2: // Block 3.c: adopt the majority proposal, vote on its support.
		bestV, bestCnt := uint64(0), 0
		for i, v := range c.prev.propose.vals {
			if cnt := c.prev.propose.cnts[i]; cnt > bestCnt || (cnt == bestCnt && bestCnt > 0 && v < bestV) {
				bestV, bestCnt = v, cnt
			}
		}
		b := BitMsg{B: 0}
		if bestCnt > 0 {
			c.save = bestV
			if bestCnt >= quorum {
				b.B = 1
			}
		} else {
			c.save = 0 // "if save = ⊥ set save := 0"
		}
		msg = b
	case 3: // Block 3.d sends nothing; the decision happens in Deliver.
	}
	if msg != nil {
		out = proto.Append(pl, out, proto.Box(pl, clockSyncChildMsg, proto.Broadcast, msg))
	}
	return out
}

// Deliver implements proto.Protocol: step A and the coin, apply Block 3.d
// when in phase 3, and record this beat's tally for the next beat. Under
// LayoutShared the shared pipeline is delivered before any consumer, so
// the rand consumed below — and by A's 2-clocks — is the bit produced
// this beat (the freshness Lemma 8 depends on).
func (c *ClockSync) Deliver(beat uint64, inbox []proto.Recv) {
	boxes := deliverShared(c.env.Pool, c.shared, clockSyncKids, beat, inbox)
	c.a.Deliver(beat, boxes[clockSyncChildA])
	c.pipe.Deliver(beat, boxes[clockSyncChildCoin])

	if c.phaseOK && c.phase == 3 {
		// Block 3.d: the bit votes were committed in the previous beat;
		// rand was produced by this beat's coin step, so it is
		// independent of them (Lemma 8).
		quorum := c.env.Quorum()
		rand := c.pipe.Bit()
		if c.stale {
			rand = c.staleBit
		}
		switch {
		case c.prev.bits[1] >= quorum:
			c.fullClock = (c.save%c.k + 3) % c.k
		case c.prev.bits[0] >= quorum:
			c.fullClock = 0
		case rand == 1:
			c.fullClock = (c.save%c.k + 3) % c.k
		default:
			c.fullClock = 0
		}
	}

	// Record this beat's ClockSync traffic for the next beat's phase,
	// recycling the tally retired two beats ago (a scrambled or zero-value
	// spare gets fresh maps).
	next := c.spare
	next.fullClock.reset()
	next.propose.reset()
	next.bits = [2]int{}
	if c.seenFC == nil {
		c.seenFC = make([]bool, c.env.N)
		c.seenP = make([]bool, c.env.N)
		c.seenB = make([]bool, c.env.N)
	}
	seenFC, seenP, seenB := c.seenFC, c.seenP, c.seenB
	for i := range seenFC {
		seenFC[i] = false
		seenP[i] = false
		seenB[i] = false
	}
	for _, r := range boxes[clockSyncChildMsg] {
		if r.From < 0 || r.From >= c.env.N {
			continue
		}
		switch m := r.Msg.(type) {
		case FullClockMsg:
			if !seenFC[r.From] && m.V < c.k {
				seenFC[r.From] = true
				next.fullClock.inc(m.V)
			}
		case *ProposeMsg:
			if !seenP[r.From] {
				seenP[r.From] = true
				if !m.Bot && m.V < c.k {
					next.propose.inc(m.V)
				}
			}
		case BitMsg:
			if !seenB[r.From] && m.B <= 1 {
				seenB[r.From] = true
				next.bits[m.B]++
			}
		}
	}
	c.spare = c.prev
	c.prev = next
}

// Clock implements proto.ClockReader. The full clock is always defined
// (it increments regardless of agreement); callers needing a "synced"
// signal must compare across nodes, as self-stabilization precludes a
// local converged flag.
func (c *ClockSync) Clock() (uint64, bool) { return c.fullClock % c.k, true }

// Modulus implements proto.ClockReader.
func (c *ClockSync) Modulus() uint64 { return c.k }

// Phase returns clock(A) as of the last Compose, for observability.
func (c *ClockSync) Phase() (uint64, bool) { return c.phase, c.phaseOK }

// RandBit returns the node's most recent common random bit. After a beat
// completes this value is public knowledge (the coin's recover round
// revealed it), which is what makes the stale variant attackable.
func (c *ClockSync) RandBit() byte { return c.pipe.Bit() }

// ConvergenceBound returns Δ_node, as in ss-Byz-4-Clock (Section 5).
func (c *ClockSync) ConvergenceBound() int { return c.a.ConvergenceBound() }

// Scramble implements proto.Scrambler: arbitrary values everywhere,
// including out-of-range clocks and corrupted tallies.
func (c *ClockSync) Scramble(rng *rand.Rand) {
	c.a.Scramble(rng)
	c.pipe.Scramble(rng)
	if c.shared != nil {
		c.shared.Scramble(rng)
	}
	c.fullClock = rng.Uint64()
	c.save = rng.Uint64()
	c.phase = rng.Uint64() % 8
	c.phaseOK = rng.Intn(2) == 0
	c.prev.fullClock.set(rng.Uint64()%(c.k+3), rng.Intn(c.env.N+2))
	c.prev.propose.set(rng.Uint64()%(c.k+3), rng.Intn(c.env.N+2))
	c.prev.bits = [2]int{rng.Intn(c.env.N + 2), rng.Intn(c.env.N + 2)}
}

// NewTwoClockProtocol, NewFourClockProtocol and NewClockSyncProtocol are
// sim.NodeFactory adapters used by tests, benchmarks and the CLIs; they
// run LayoutShared. The *ProtocolLayout variants take the layout, which
// the differential harness and the E8 complexity tests need.
func NewTwoClockProtocol(factory coin.Factory) func(proto.Env) proto.Protocol {
	return func(env proto.Env) proto.Protocol { return NewTwoClock(env, factory) }
}

// NewTwoClockProtocolLayout adapts NewTwoClockLayout to a node factory.
func NewTwoClockProtocolLayout(factory coin.Factory, l Layout) func(proto.Env) proto.Protocol {
	return func(env proto.Env) proto.Protocol {
		return NewTwoClockLayout(env, factory, VariantCorrect, l)
	}
}

// NewFourClockProtocol adapts NewFourClock to a node factory.
func NewFourClockProtocol(factory coin.Factory) func(proto.Env) proto.Protocol {
	return func(env proto.Env) proto.Protocol { return NewFourClock(env, factory) }
}

// NewFourClockProtocolLayout adapts NewFourClockLayout to a node factory.
func NewFourClockProtocolLayout(factory coin.Factory, l Layout) func(proto.Env) proto.Protocol {
	return func(env proto.Env) proto.Protocol { return NewFourClockLayout(env, factory, l) }
}

// NewClockSyncProtocol adapts NewClockSync to a node factory.
func NewClockSyncProtocol(k uint64, factory coin.Factory) func(proto.Env) proto.Protocol {
	return func(env proto.Env) proto.Protocol { return NewClockSync(env, k, factory) }
}

// NewClockSyncProtocolLayout adapts NewClockSyncLayout to a node factory.
func NewClockSyncProtocolLayout(k uint64, factory coin.Factory, l Layout) func(proto.Env) proto.Protocol {
	return func(env proto.Env) proto.Protocol {
		return NewClockSyncLayout(env, k, factory, false, l)
	}
}

// NewClockSyncStaleProtocolLayout adapts the Remark 3.1 stale-rand
// ablation variant to a node factory; the sweep runner's
// "clocksyncstale" protocol (E6 grids) runs it.
func NewClockSyncStaleProtocolLayout(k uint64, factory coin.Factory, l Layout) func(proto.Env) proto.Protocol {
	return func(env proto.Env) proto.Protocol {
		return NewClockSyncLayout(env, k, factory, true, l)
	}
}
