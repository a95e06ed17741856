package core

import (
	"math/rand"

	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/proto"
)

// Envelope child tags of FourClock.
const (
	fourClockChildA1 = 0
	fourClockChildA2 = 1
	fourClockKids    = 2
)

// FourClock is ss-Byz-4-Clock (Figure 3): two ss-Byz-2-Clock instances
// A1, A2, where A2 executes a beat only when clock(A1) = 0 at the
// beginning of the beat, and the output clock is 2·clock(A2) + clock(A1).
// After both instances converge (expected constant time each, Theorem 3),
// the output cycles 0,1,2,3.
type FourClock struct {
	env proto.Env
	a1  *TwoClock
	a2  *TwoClock
	// shared is non-nil when this instance is a stack root that owns the
	// node's shared coin pipeline (LayoutShared, standalone 4-clock).
	shared *coin.SharedPipeline
	// stepA2 records the Compose-time decision "clock(A1) = 0" so
	// Deliver applies the same beat's choice. It is per-beat scratch, not
	// protocol state: a transient fault corrupting it perturbs one beat.
	stepA2 bool
}

var (
	_ proto.Protocol    = (*FourClock)(nil)
	_ proto.ClockReader = (*FourClock)(nil)
	_ proto.Scrambler   = (*FourClock)(nil)
)

// NewFourClock constructs ss-Byz-4-Clock under LayoutShared. Under
// LayoutShared both embedded 2-clocks read derived bits from one shared
// coin pipeline (Remark 4.1, the constant-factor saving the paper
// points out); under LayoutPaper each gets its own pipeline from the
// factory, the literal layout of Figure 3.
func NewFourClock(env proto.Env, factory coin.Factory) *FourClock {
	return NewFourClockLayout(env, factory, LayoutShared)
}

// NewFourClockLayout additionally pins the coin layout.
func NewFourClockLayout(env proto.Env, factory coin.Factory, l Layout) *FourClock {
	supply, sp := newSupply(env, factory, l)
	c := newFourClock(env, supply, "4clock")
	c.shared = sp
	return c
}

// newFourClock wires a 4-clock's two 2-clocks as consumers of the given
// coin supply, labelled under prefix.
func newFourClock(env proto.Env, supply coin.Supply, prefix string) *FourClock {
	return &FourClock{
		env: env,
		a1:  newTwoClock(env, supply, VariantCorrect, prefix+"/a1"),
		a2:  newTwoClock(env, supply, VariantCorrect, prefix+"/a2"),
	}
}

// Compose implements proto.Protocol: Figure 3 lines 1-2 (send halves).
// Figure 3's guard "if clock(A1) = 0" reads clock(A1) *after* line 1
// executed A1's beat; since a converged A1 flips every beat, that equals
// clock(A1) = 1 at the beginning of the beat, which is the value
// available before this beat's messages are exchanged.
func (c *FourClock) Compose(beat uint64) []proto.Send {
	pl := c.env.Pool
	out := proto.Wrap(pl, fourClockChildA1, c.a1.Compose(beat), nil)
	v1, ok1 := c.a1.Clock()
	c.stepA2 = ok1 && v1 == 1
	if c.stepA2 {
		out = proto.Wrap(pl, fourClockChildA2, c.a2.Compose(beat), out)
	}
	return composeShared(pl, out, c.shared, beat)
}

// Deliver implements proto.Protocol: Figure 3 lines 1-2 (receive halves).
// Line 3's output composition is performed lazily by Clock. An owned
// shared pipeline is delivered first so both 2-clocks consume the bit
// produced this beat.
func (c *FourClock) Deliver(beat uint64, inbox []proto.Recv) {
	boxes := deliverShared(c.env.Pool, c.shared, fourClockKids, beat, inbox)
	if c.stepA2 {
		c.a2.Deliver(beat, boxes[fourClockChildA2])
	}
	c.a1.Deliver(beat, boxes[fourClockChildA1])
}

// Clock implements proto.ClockReader: 2·clock(A2) + clock(A1), undefined
// while either half is ⊥.
func (c *FourClock) Clock() (uint64, bool) {
	v1, ok1 := c.a1.Clock()
	v2, ok2 := c.a2.Clock()
	if !ok1 || !ok2 {
		return 0, false
	}
	return 2*v2 + v1, true
}

// Modulus implements proto.ClockReader.
func (c *FourClock) Modulus() uint64 { return 4 }

// ConvergenceBound returns Δ_node for this protocol: Section 4 sets it to
// max(Δ_A1, 2·Δ_A2) = 2·Δ_ss-Byz-2-Clock since A2 steps every other beat.
func (c *FourClock) ConvergenceBound() int {
	return 2 * c.a2.ConvergenceBound()
}

// Scramble implements proto.Scrambler.
func (c *FourClock) Scramble(rng *rand.Rand) {
	c.a1.Scramble(rng)
	c.a2.Scramble(rng)
	if c.shared != nil {
		c.shared.Scramble(rng)
	}
	c.stepA2 = rng.Intn(2) == 0
}
