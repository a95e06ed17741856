// The race detector's instrumentation allocates inside Act (twice per
// call at n=16, where the normal build allocates nothing), so the zero
// gate runs without it only.

//go:build !race

package adversary_test

import (
	"testing"

	"ssbyzclock/internal/adversary"
	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/pool"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/sim"
)

// allocsAt runs inner as the engine's adversary and, at one beat,
// measures inner.Act's allocations on that beat's real traffic. Each
// measured call leases its output from a pool of the probe's own,
// recycled after the call as an executor recycles the adversary's pool
// once per beat, so the count is a warm beat's.
type allocsAt struct {
	inner   adversary.Adversary
	ctx     *adversary.Context
	beat    uint64
	allocs  float64
	rewrote bool // the measured beat equivocated a 2-clock vote
}

func (a *allocsAt) Act(beat uint64, composed []adversary.Sends, visible []adversary.Intercept) []adversary.Sends {
	out := a.inner.Act(beat, composed, visible)
	if beat == a.beat {
		own, beats := &pool.Node{}, a.ctx.Pool
		a.ctx.Pool = own
		a.allocs = testing.AllocsPerRun(20, func() {
			a.inner.Act(beat, composed, visible)
			own.Recycle()
		})
		a.ctx.Pool = beats
		for _, s := range out {
			for _, snd := range s.Out {
				_, leaf := adversary.Unwrap(snd.Msg)
				if _, ok := leaf.(core.TwoClockMsg); ok && snd.To != proto.Broadcast {
					a.rewrote = true
				}
			}
		}
	}
	return out
}

// TestClockSplitterActAllocs pins the adversary boundary's allocation
// cost: on a real beat of the bench/ engine-n16 shape (and at n=7), a
// warm ClockSplitter.Act allocates nothing — its output lists and the
// envelopes of its rewritten copies are leases from the adversary's
// pool, however many copies it forwards or rewrites.
func TestClockSplitterActAllocs(t *testing.T) {
	for _, c := range []struct{ n, f int }{{16, 5}, {7, 2}} {
		probe := &allocsAt{beat: 24}
		cfg := sim.Config{
			N: c.n, F: c.f, Seed: 1, ScrambleStart: true,
			NewAdversary: func(ctx *adversary.Context) adversary.Adversary {
				probe.inner, probe.ctx = &adversary.ClockSplitter{Ctx: ctx}, ctx
				return probe
			},
		}
		sim.New(cfg, core.NewClockSyncProtocolLayout(64, coin.FMFactory{}, core.LayoutShared)).Run(25)
		if !probe.rewrote {
			t.Fatalf("n=%d: beat %d rewrote no 2-clock vote; the pin measures nothing", c.n, probe.beat)
		}
		if probe.allocs > 0 {
			t.Fatalf("n=%d f=%d: ClockSplitter.Act allocates %.0f times per beat, want 0", c.n, c.f, probe.allocs)
		}
	}
}
