// Package sscoin implements ss-Byz-Coin-Flip (Figure 1 of the paper): the
// transformation of a Δ_A-round probabilistic coin-flipping algorithm A
// into a self-stabilizing pipelined coin that emits one random bit every
// beat.
//
// The pipeline holds Δ_A concurrently executing instances of A, one per
// "age" 1..Δ_A. On every beat, the instance of age a executes its a-th
// round; the oldest instance's output becomes this beat's bit; instances
// shift one age older; and a fresh instance is created at age 1. Messages
// are tagged with the sender instance's age, which is positional rather
// than stored state — the recycled "session numbers" of the paper — so
// routing itself cannot be corrupted by a transient fault, and any
// corrupted instance state is flushed out of the pipeline within Δ_A
// beats (Lemma 1: convergence time Δ_ss-Byz-Coin-Flip = Δ_A).
//
// A clock stack wires its consumers to pipelines through a coin.Supply:
// PerInstance (this package) reproduces the paper's layout of one
// pipeline per consumer, while coin.SharedPipeline multiplexes a single
// Pipeline per node among all consumers (Remark 4.1) — Pipeline
// implements coin.Driver for that purpose.
package sscoin

import (
	"math/rand"

	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/proto"
)

// Pipeline is the per-node state of ss-Byz-Coin-Flip. It implements
// proto.Protocol, proto.BitReader, proto.Scrambler, and coin.Driver (so
// one pipeline can back a coin.SharedPipeline for a whole clock stack).
type Pipeline struct {
	env     proto.Env
	factory coin.Factory
	// slots[i] is the instance of age i+1; slots[len-1] is the oldest,
	// about to emit its output.
	slots []coin.Flipper
	bit   byte
	// word/rich widen the beat's output for shared-pipeline consumer
	// derivation: the retiring instance's OutputWord when it implements
	// coin.WordFlipper, else the bare bit (rich = false).
	word uint64
	rich bool
}

var (
	_ proto.Protocol  = (*Pipeline)(nil)
	_ proto.BitReader = (*Pipeline)(nil)
	_ proto.Scrambler = (*Pipeline)(nil)
	_ coin.Driver     = (*Pipeline)(nil)
	_ coin.Feed       = (*Pipeline)(nil)
)

// PerInstance returns the paper's coin wiring as a coin.Supply: every
// consumer gets its own independent pipeline, exactly the layout of
// Figures 2-4 (three pipelines per node for the full clock-sync stack).
// The alternative supply is coin.SharedPipeline (Remark 4.1).
func PerInstance(factory coin.Factory) coin.Supply {
	return perInstance{factory: factory}
}

type perInstance struct{ factory coin.Factory }

// Feed implements coin.Supply; the label is irrelevant when every
// consumer owns its pipeline.
func (p perInstance) Feed(env proto.Env, _ string) coin.Feed {
	return New(env, p.factory)
}

// New constructs the pipeline, filling every slot with a fresh instance.
// The pipeline's first Δ_A bits are unconverged (the initial instances
// never ran their early rounds), exactly as after a transient fault.
func New(env proto.Env, factory coin.Factory) *Pipeline {
	p := &Pipeline{env: env, factory: factory}
	p.slots = make([]coin.Flipper, factory.Rounds())
	for i := range p.slots {
		p.slots[i] = factory.New(env, 0)
	}
	return p
}

// Rounds returns Δ_A, the pipeline depth and the convergence time of the
// pipeline after a transient fault.
func (p *Pipeline) Rounds() int { return p.factory.Rounds() }

// Compose implements proto.Protocol: every instance sends its
// current-round messages, wrapped in an envelope carrying its age.
func (p *Pipeline) Compose(beat uint64) []proto.Send {
	var out []proto.Send
	for i, slot := range p.slots {
		out = proto.Wrap(p.env.Pool, uint8(i+1), slot.Compose(i+1), out)
	}
	return out
}

// Deliver implements proto.Protocol: route messages to instances by age,
// capture the oldest instance's output as this beat's bit, then shift the
// pipeline and admit a fresh instance. When the factory supports
// recycling, the retiring oldest instance — unwrapped, if a scramble
// corrupted it — is re-initialized in place as the fresh one instead of
// being left to the garbage collector.
func (p *Pipeline) Deliver(beat uint64, inbox []proto.Recv) {
	depth := len(p.slots)
	// Child tag 0 is unused (ages are 1-based); the split covers 0..depth.
	boxes := proto.Split(p.env.Pool, inbox, depth+1)
	for i, slot := range p.slots {
		slot.Deliver(i+1, boxes[i+1])
	}
	oldest := p.slots[depth-1]
	p.bit = oldest.Output()
	if wf, ok := oldest.(coin.WordFlipper); ok {
		p.word, p.rich = wf.OutputWord(), true
	} else {
		p.word, p.rich = uint64(p.bit), false
	}
	copy(p.slots[1:], p.slots[:depth-1])
	if c, ok := oldest.(*corruptFlipper); ok {
		oldest = c.inner // the scrambled instance's memory renews like any other's
	}
	if r, ok := p.factory.(coin.Recycler); ok {
		p.slots[0] = r.Renew(oldest, p.env, beat)
	} else {
		p.slots[0] = p.factory.New(p.env, beat)
	}
}

// Bit implements proto.BitReader: the random bit emitted at the most
// recent beat.
func (p *Pipeline) Bit() byte { return p.bit }

// Word implements coin.Driver: the most recent beat's output widened to
// a word for per-consumer derivation, and whether it carries more
// randomness than the bare bit.
func (p *Pipeline) Word() (uint64, bool) { return p.word, p.rich }

// Scramble implements proto.Scrambler: model a transient fault by
// putting every in-flight instance into an arbitrary state. Corrupted
// instances keep exchanging (garbage) messages but emit an arbitrary,
// per-node-random output bit when they reach the end of the pipeline —
// the worst consistent interpretation of "memory set to an arbitrary
// value". Within Rounds() beats all corrupted instances are flushed and
// the pipeline emits properly distributed common bits again (Lemma 1).
func (p *Pipeline) Scramble(rng *rand.Rand) {
	for i := range p.slots {
		if rng.Intn(4) > 0 {
			// The corrupted word reuses the scramble seed draw: any
			// arbitrary value serves the fault model, and not drawing again
			// keeps the rng stream — hence every seeded paper-layout trace —
			// identical to the pre-shared-pipeline engine.
			seed := rng.Uint64()
			p.slots[i] = &corruptFlipper{
				inner: p.factory.New(p.env, seed),
				out:   byte(rng.Intn(2)),
				word:  seed,
			}
		}
	}
	p.bit = byte(rng.Intn(2))
	// The captured word is per-beat scratch (recaptured on the next
	// Deliver); deriving it from the scrambled bit instead of fresh draws
	// keeps the stream unchanged, as above.
	p.word, p.rich = uint64(p.bit), false
}

// corruptFlipper models a coin instance whose memory was hit by a
// transient fault: its protocol messages are garbage relative to its
// peers (a fresh instance started at the wrong round) and its output —
// bit and word alike — is arbitrary instead of the protocol's result.
type corruptFlipper struct {
	inner coin.Flipper
	out   byte
	word  uint64
}

func (c *corruptFlipper) Rounds() int                        { return c.inner.Rounds() }
func (c *corruptFlipper) Compose(round int) []proto.Send     { return c.inner.Compose(round) }
func (c *corruptFlipper) Deliver(round int, in []proto.Recv) { c.inner.Deliver(round, in) }
func (c *corruptFlipper) Output() byte                       { return c.out }
func (c *corruptFlipper) OutputWord() uint64                 { return c.word }
