package core

import (
	"fmt"
	"math/rand"

	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/proto"
)

// clockProto is what PowerClock needs from a sub-clock.
type clockProto interface {
	proto.Protocol
	proto.ClockReader
	proto.Scrambler
}

// PowerClock is the recursive 2^j-Clock construction sketched at the top
// of the paper's Section 5: a 2m-clock is built from A1 solving the
// m-clock problem and A2 solving the 2-clock problem, where A2 executes a
// beat exactly when A1 is about to wrap, and the output is
// clock(A1) + m·clock(A2).
//
// The paper introduces this construction only to reject it: it solves
// k-Clock for k = 2^j, but each doubling adds a concurrent 2-clock
// (log k message overhead) and the slowest level flips every k/2 beats,
// so expected convergence grows with k instead of staying constant.
// Experiment E11 measures exactly that against ss-Byz-Clock-Sync, which
// is the paper's replacement (Figure 4, constant overhead).
type PowerClock struct {
	env proto.Env
	m   uint64 // modulus of this level, a power of two >= 2
	a1  clockProto
	a2  *TwoClock
	// shared is non-nil on the top-level instance when the stack runs
	// LayoutShared: one coin pipeline serves every level's 2-clock.
	shared *coin.SharedPipeline
	stepA2 bool
}

var (
	_ proto.Protocol    = (*PowerClock)(nil)
	_ proto.ClockReader = (*PowerClock)(nil)
	_ proto.Scrambler   = (*PowerClock)(nil)
)

// NewPowerClock builds the recursive construction for modulus m, which
// must be a power of two >= 2, under LayoutShared. Under LayoutShared
// every level's 2-clock reads a derived bit from one shared pipeline —
// which removes the construction's log k *coin* overhead but not its
// fundamental flaw, the k/2-beat top-level flip; under LayoutPaper each
// level gets its own pipelines from the factory.
func NewPowerClock(env proto.Env, m uint64, factory coin.Factory) (*PowerClock, error) {
	return NewPowerClockLayout(env, m, factory, LayoutShared)
}

// NewPowerClockLayout additionally pins the coin layout.
func NewPowerClockLayout(env proto.Env, m uint64, factory coin.Factory, l Layout) (*PowerClock, error) {
	if m < 2 || m&(m-1) != 0 {
		return nil, fmt.Errorf("core: power-clock modulus %d is not a power of two >= 2", m)
	}
	supply, sp := newSupply(env, factory, l)
	pc, err := newPowerClock(env, m, supply)
	if err != nil {
		return nil, err
	}
	pc.shared = sp
	return pc, nil
}

// newPowerClock wires one level (and, recursively, the levels below it)
// as consumers of the given coin supply.
func newPowerClock(env proto.Env, m uint64, supply coin.Supply) (*PowerClock, error) {
	if m < 2 || m&(m-1) != 0 {
		return nil, fmt.Errorf("core: power-clock modulus %d is not a power of two >= 2", m)
	}
	pc := &PowerClock{env: env, m: m, a2: newTwoClock(env, supply, VariantCorrect, fmt.Sprintf("power/m%d/a2", m))}
	switch {
	case m == 2:
		// Degenerate level: a bare 2-clock (a1 unused).
		pc.a1 = nil
	case m == 4:
		pc.a1 = newTwoClock(env, supply, VariantCorrect, "power/m4/a1")
	default:
		inner, err := newPowerClock(env, m/2, supply)
		if err != nil {
			return nil, err
		}
		pc.a1 = inner
	}
	return pc, nil
}

// Compose implements proto.Protocol. The same child tags as FourClock:
// 0 = A1, 1 = A2. A2 executes exactly on the beats where A1 is about to
// wrap to 0 — the generalization of Figure 3's guard (for m = 4, A1 is a
// 2-clock and the guard is clock(A1) = 1, matching FourClock).
func (pc *PowerClock) Compose(beat uint64) []proto.Send {
	pl := pc.env.Pool
	if pc.m == 2 {
		// The degenerate level forwards A2's sends unwrapped; an owned
		// shared pipeline still rides the reserved root-level tag, which
		// A2's own splitter drops as out of range.
		return composeShared(pl, pc.a2.Compose(beat), pc.shared, beat)
	}
	out := proto.Wrap(pl, fourClockChildA1, pc.a1.Compose(beat), nil)
	v1, ok1 := pc.a1.Clock()
	pc.stepA2 = ok1 && v1 == pc.m/2-1
	if pc.stepA2 {
		out = proto.Wrap(pl, fourClockChildA2, pc.a2.Compose(beat), out)
	}
	return composeShared(pl, out, pc.shared, beat)
}

// Deliver implements proto.Protocol. An owned shared pipeline is
// delivered before any level, so every 2-clock consumes the bit produced
// this beat.
func (pc *PowerClock) Deliver(beat uint64, inbox []proto.Recv) {
	if pc.m == 2 {
		if pc.shared != nil {
			boxes := proto.Split(pc.env.Pool, inbox, int(proto.SharedCoinChild)+1)
			pc.shared.Deliver(beat, boxes[proto.SharedCoinChild])
		}
		// A2 splits the (unwrapped) inbox itself; foreign tags — including
		// the shared-coin tag just consumed — are dropped by its splitter.
		pc.a2.Deliver(beat, inbox)
		return
	}
	boxes := deliverShared(pc.env.Pool, pc.shared, fourClockKids, beat, inbox)
	if pc.stepA2 {
		pc.a2.Deliver(beat, boxes[fourClockChildA2])
	}
	pc.a1.Deliver(beat, boxes[fourClockChildA1])
}

// Clock implements proto.ClockReader: clock(A1) + (m/2)·clock(A2).
func (pc *PowerClock) Clock() (uint64, bool) {
	if pc.m == 2 {
		return pc.a2.Clock()
	}
	v1, ok1 := pc.a1.Clock()
	v2, ok2 := pc.a2.Clock()
	if !ok1 || !ok2 {
		return 0, false
	}
	return v1 + pc.m/2*v2, true
}

// Modulus implements proto.ClockReader.
func (pc *PowerClock) Modulus() uint64 { return pc.m }

// Scramble implements proto.Scrambler.
func (pc *PowerClock) Scramble(rng *rand.Rand) {
	if pc.a1 != nil {
		pc.a1.Scramble(rng)
	}
	pc.a2.Scramble(rng)
	if pc.shared != nil {
		pc.shared.Scramble(rng)
	}
	pc.stepA2 = rng.Intn(2) == 0
}

// NewPowerClockProtocol adapts NewPowerClock to a sim.NodeFactory; it
// panics on invalid moduli (a programming error in experiment code).
func NewPowerClockProtocol(m uint64, factory coin.Factory) func(proto.Env) proto.Protocol {
	return NewPowerClockProtocolLayout(m, factory, LayoutShared)
}

// NewPowerClockProtocolLayout adapts NewPowerClockLayout to a node
// factory, pinning the coin layout.
func NewPowerClockProtocolLayout(m uint64, factory coin.Factory, l Layout) func(proto.Env) proto.Protocol {
	return func(env proto.Env) proto.Protocol {
		pc, err := NewPowerClockLayout(env, m, factory, l)
		if err != nil {
			panic(err)
		}
		return pc
	}
}
