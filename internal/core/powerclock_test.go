package core_test

import (
	"math/rand"
	"testing"

	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/sim"
)

func TestPowerClockRejectsBadModulus(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			env := proto.Env{N: 4, F: 1, ID: 0, Rng: rand.New(rand.NewSource(1))}
			for _, m := range []uint64{0, 1, 3, 6, 12, 100} {
				if _, err := core.NewPowerClockLayout(env, m, coin.LocalFactory{}, l); err == nil {
					t.Errorf("modulus %d accepted", m)
				}
			}
			for _, m := range []uint64{2, 4, 8, 64} {
				if _, err := core.NewPowerClockLayout(env, m, coin.LocalFactory{}, l); err != nil {
					t.Errorf("modulus %d rejected: %v", m, err)
				}
			}
		})
	}
}

func TestPowerClockConvergesAndCycles(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			for _, m := range []uint64{2, 4, 8, 16} {
				cfg := sim.Config{N: 4, F: 1, Seed: int64(m), NewAdversary: silentAdv, ScrambleStart: true}
				e := sim.New(cfg, core.NewPowerClockProtocolLayout(m, coin.RabinFactory{Seed: int64(m)}, l))
				// Convergence budget grows with m: the top-level 2-clock flips
				// only every m/2 beats (the construction's weakness).
				res := sim.MeasureConvergence(e, m, 400*int(m), int(2*m))
				if !res.Converged {
					t.Fatalf("m=%d: no convergence", m)
				}
				var prev uint64
				havePrev := false
				for i := 0; i < int(2*m); i++ {
					e.Step()
					v, ok := sim.ReadClocks(e).Synced()
					if !ok {
						t.Fatalf("m=%d: lost sync during closure check", m)
					}
					if havePrev && v != (prev+1)%m {
						t.Fatalf("m=%d: clock jumped %d -> %d", m, prev, v)
					}
					prev, havePrev = v, true
				}
			}
		})
	}
}

func TestPowerClockMatchesFourClockShape(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			// m=4 PowerClock is structurally FourClock; both must produce the
			// 0,1,2,3 cycle.
			cfg := sim.Config{N: 4, F: 1, Seed: 9, NewAdversary: silentAdv, ScrambleStart: true}
			e := sim.New(cfg, core.NewPowerClockProtocolLayout(4, coin.RabinFactory{Seed: 9}, l))
			res := sim.MeasureConvergence(e, 4, 1000, 8)
			if !res.Converged {
				t.Fatal("no convergence")
			}
			seen := map[uint64]bool{}
			for i := 0; i < 8; i++ {
				e.Step()
				v, ok := sim.ReadClocks(e).Synced()
				if !ok {
					t.Fatal("lost sync")
				}
				seen[v] = true
			}
			for v := uint64(0); v < 4; v++ {
				if !seen[v] {
					t.Fatalf("value %d never appeared: %v", v, seen)
				}
			}
		})
	}
}

func TestPowerClockConvergenceGrowsWithK(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			// The reason the paper rejects this construction (Section 5): its
			// convergence grows with k, while ss-Byz-Clock-Sync stays flat.
			mean := func(m uint64) float64 {
				total := 0
				const runs = 8
				for seed := int64(0); seed < runs; seed++ {
					cfg := sim.Config{N: 4, F: 1, Seed: seed, NewAdversary: silentAdv, ScrambleStart: true}
					e := sim.New(cfg, core.NewPowerClockProtocolLayout(m, coin.RabinFactory{Seed: seed}, l))
					res := sim.MeasureConvergence(e, m, 500*int(m), 8)
					if !res.Converged {
						total += 500 * int(m)
						continue
					}
					total += res.ConvergedAt
				}
				return float64(total) / runs
			}
			small := mean(4)
			large := mean(32)
			if large < small+8 {
				t.Fatalf("power-clock convergence did not grow with k: m=4 %.1f vs m=32 %.1f", small, large)
			}
		})
	}
}

func TestPowerClockSelfStabilizes(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			cfg := sim.Config{N: 4, F: 1, Seed: 3, NewAdversary: silentAdv, ScrambleStart: true}
			e := sim.New(cfg, core.NewPowerClockProtocolLayout(8, coin.RabinFactory{Seed: 3}, l))
			res := sim.MeasureConvergence(e, 8, 3000, 16)
			if !res.Converged {
				t.Fatal("no initial convergence")
			}
			e.ScrambleHonest()
			res = sim.MeasureConvergence(e, 8, 3000, 16)
			if !res.Converged {
				t.Fatal("no re-convergence after scramble")
			}
		})
	}
}
