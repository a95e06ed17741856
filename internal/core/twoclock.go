package core

import (
	"math/rand"

	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/proto"
)

// Variant selects between the paper's algorithm and the deliberately
// broken scheme of Remark 3.1, kept for the E6 ablation.
type Variant uint8

const (
	// VariantCorrect is Figure 2 as published: nodes broadcast ⊥ and the
	// *receiver* substitutes the current beat's rand, which the Byzantine
	// nodes could not know when they committed their clock messages.
	VariantCorrect Variant = iota
	// VariantPreRand is Remark 3.1's flawed alternative: a node holding ⊥
	// broadcasts the *previous* beat's rand directly. The adversary has
	// already seen that bit (the coin's recover round made it public), so
	// it can choose its clock values as a function of the bit and stall
	// convergence — demonstrated by experiment E6.
	VariantPreRand
)

// Envelope child tags of TwoClock.
const (
	twoClockChildMsg  = 0 // TwoClockMsg broadcasts
	twoClockChildCoin = 1 // ss-Byz-Coin-Flip pipeline traffic
	twoClockChildren  = 2
)

// TwoClock is ss-Byz-2-Clock (Figure 2): each beat every node broadcasts
// its clock value (0, 1 or ⊥), messages carrying ⊥ are counted as the
// beat's common random bit, and a node seeing an n-f majority for v sets
// its clock to 1-v, otherwise to ⊥. Once all correct nodes agree they
// alternate 0,1,0,... forever (Lemma 2); from an arbitrary state the
// expected convergence time is constant (Theorem 2).
type TwoClock struct {
	env     proto.Env
	variant Variant
	// pipe is this clock's coin feed: its own ss-Byz-Coin-Flip pipeline
	// under LayoutPaper, a derived handle onto the stack's shared
	// pipeline under LayoutShared.
	pipe coin.Feed
	// shared is non-nil when this instance is a stack root that owns the
	// node's shared pipeline (LayoutShared, standalone 2-clock).
	shared *coin.SharedPipeline
	clock  uint8 // 0, 1, Bot; a transient fault may leave garbage

	seen []bool // per-beat dedup scratch
}

var (
	_ proto.Protocol    = (*TwoClock)(nil)
	_ proto.ClockReader = (*TwoClock)(nil)
	_ proto.Scrambler   = (*TwoClock)(nil)
)

// NewTwoClock constructs ss-Byz-2-Clock over the given coin-flipping
// factory (the paper's algorithm C; Δ_node must be at least the
// factory's round count — see ConvergenceBound), under LayoutShared.
func NewTwoClock(env proto.Env, factory coin.Factory) *TwoClock {
	return NewTwoClockVariant(env, factory, VariantCorrect)
}

// NewTwoClockVariant additionally selects the Remark 3.1 ablation
// variant.
func NewTwoClockVariant(env proto.Env, factory coin.Factory, v Variant) *TwoClock {
	return NewTwoClockLayout(env, factory, v, LayoutShared)
}

// NewTwoClockLayout additionally pins the coin layout. A standalone
// 2-clock has a single coin consumer, so the layouts cost the same here;
// both are kept selectable for the differential harness.
func NewTwoClockLayout(env proto.Env, factory coin.Factory, v Variant, l Layout) *TwoClock {
	supply, sp := newSupply(env, factory, l)
	c := newTwoClock(env, supply, v, "2clock")
	c.shared = sp
	return c
}

// newTwoClock wires a 2-clock as a consumer of the given coin supply;
// label must be unique within the supply's stack.
func newTwoClock(env proto.Env, supply coin.Supply, v Variant, label string) *TwoClock {
	return &TwoClock{
		env:     env,
		variant: v,
		pipe:    supply.Feed(env, label),
		clock:   Bot,
	}
}

// Compose implements proto.Protocol: Figure 2 line 1 (broadcast clock)
// plus one beat of the coin pipeline.
func (c *TwoClock) Compose(beat uint64) []proto.Send {
	v := c.clock
	if v > Bot {
		v = Bot // normalize transient-fault garbage
	}
	if c.variant == VariantPreRand && v == Bot {
		// Remark 3.1's broken scheme: substitute the previous beat's
		// public random bit at the sender.
		v = c.pipe.Bit()
	}
	pl := c.env.Pool
	out := proto.Append(pl, nil, proto.Box(pl, twoClockChildMsg, proto.Broadcast, TwoClockMsg{V: v}))
	out = proto.Wrap(pl, twoClockChildCoin, c.pipe.Compose(beat), out)
	return composeShared(pl, out, c.shared, beat)
}

// Deliver implements proto.Protocol: Figure 2 lines 2-6. When this
// instance owns the stack's shared pipeline it delivers the pipeline
// first, so the bit consumed below is the one produced this beat.
func (c *TwoClock) Deliver(beat uint64, inbox []proto.Recv) {
	boxes := deliverShared(c.env.Pool, c.shared, twoClockChildren, beat, inbox)
	c.pipe.Deliver(beat, boxes[twoClockChildCoin])
	rand := c.pipe.Bit()

	// Tally clock values, counting each sender once and mapping ⊥ to
	// rand (line 3). In the PreRand variant senders already substituted
	// a bit, so ⊥ messages are Byzantine noise and are dropped.
	var count [2]int
	if c.seen == nil {
		c.seen = make([]bool, c.env.N)
	}
	seen := c.seen
	for i := range seen {
		seen[i] = false
	}
	for _, r := range boxes[twoClockChildMsg] {
		m, ok := r.Msg.(TwoClockMsg)
		if !ok || r.From < 0 || r.From >= c.env.N || seen[r.From] {
			continue
		}
		v := m.V
		if v == Bot {
			if c.variant == VariantPreRand {
				continue
			}
			v = rand
		}
		if v > 1 {
			continue // Byzantine garbage
		}
		seen[r.From] = true
		count[v]++
	}
	maj := uint8(0)
	if count[1] > count[0] {
		maj = 1
	}
	if count[maj] >= c.env.Quorum() {
		c.clock = 1 - maj // line 5
	} else {
		c.clock = Bot // line 6
	}
}

// Clock implements proto.ClockReader; ok is false while the clock is ⊥.
func (c *TwoClock) Clock() (uint64, bool) {
	if c.clock > 1 {
		return 0, false
	}
	return uint64(c.clock), true
}

// Modulus implements proto.ClockReader.
func (c *TwoClock) Modulus() uint64 { return 2 }

// Bit exposes the node's current common random bit (the underlying
// ss-Byz-Coin-Flip output); consumers above (none in the paper's stack,
// but available to library users) must heed Section 6.1's warning that
// the adversary sees the bit in the same beat.
func (c *TwoClock) Bit() byte { return c.pipe.Bit() }

// ConvergenceBound returns Δ_node for this protocol instance: the number
// of fault-free beats after which convergence guarantees start to apply
// (the coin pipeline depth; Section 3.2 requires Δ_node >= Δ_C).
func (c *TwoClock) ConvergenceBound() int { return c.pipe.Rounds() }

// Scramble implements proto.Scrambler: arbitrary clock value — covering
// the in-domain values 0, 1 and ⊥ as well as out-of-range garbage — and
// a scrambled coin pipeline.
func (c *TwoClock) Scramble(rng *rand.Rand) {
	switch rng.Intn(4) {
	case 0:
		c.clock = 0
	case 1:
		c.clock = 1
	case 2:
		c.clock = Bot
	default:
		c.clock = uint8(rng.Intn(256))
	}
	c.pipe.Scramble(rng)
	if c.shared != nil {
		c.shared.Scramble(rng)
	}
}
