package core_test

// The shared coin pipeline (Remark 4.1) against the paper layout, as
// protocol properties: every stack's consumer labels are valid, and the
// shared layout serves the recursive power clock too. The byte-level
// and closure differentials of the two layouts are cells of
// internal/difftest.

import (
	"math/rand"
	"testing"

	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/sim"
)

func testEnv(n, f, id int, seed int64) proto.Env {
	return proto.Env{N: n, F: f, ID: id, Rng: rand.New(rand.NewSource(seed))}
}

// TestStackLabelsCollisionFree: constructing every shared-layout stack —
// including a deep power clock, the stack with the most consumers — must
// not trip SharedPipeline's duplicate/collision panic, i.e. the label
// sets wired in core are valid per the consumer-handle contract.
func TestStackLabelsCollisionFree(t *testing.T) {
	env := testEnv(4, 1, 0, 20)
	core.NewTwoClockLayout(env, coin.RabinFactory{Seed: 1}, core.VariantCorrect, core.LayoutShared)
	core.NewFourClockLayout(env, coin.RabinFactory{Seed: 1}, core.LayoutShared)
	core.NewClockSyncLayout(env, 64, coin.RabinFactory{Seed: 1}, false, core.LayoutShared)
	if _, err := core.NewPowerClockLayout(env, 1024, coin.RabinFactory{Seed: 1}, core.LayoutShared); err != nil {
		t.Fatal(err)
	}
}

// TestSharedPowerClockConverges: the shared layout also serves the
// recursive 2^j-clock (every level one consumer); it must converge and
// cycle exactly like the paper layout.
func TestSharedPowerClockConverges(t *testing.T) {
	for _, m := range []uint64{4, 8, 16} {
		for _, l := range []core.Layout{core.LayoutPaper, core.LayoutShared} {
			cfg := sim.Config{N: 4, F: 1, Seed: int64(m), NewAdversary: silentAdv, ScrambleStart: true}
			e := sim.New(cfg, core.NewPowerClockProtocolLayout(m, coin.RabinFactory{Seed: int64(m)}, l))
			res := sim.MeasureConvergence(e, m, 400*int(m), int(2*m))
			if !res.Converged {
				t.Fatalf("m=%d %v: no convergence", m, l)
			}
		}
	}
}
