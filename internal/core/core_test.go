package core_test

import (
	"testing"

	"ssbyzclock/internal/adversary"
	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/sim"
)

func silentAdv(*adversary.Context) adversary.Adversary { return adversary.Silent{} }

// converge runs the protocol and requires convergence plus closure.
func converge(t *testing.T, cfg sim.Config, factory sim.NodeFactory, k uint64, maxBeats int) sim.ConvergenceResult {
	t.Helper()
	e := sim.New(cfg, factory)
	res := sim.MeasureConvergence(e, k, maxBeats, 24)
	if !res.Converged {
		t.Fatalf("n=%d f=%d seed=%d: no convergence within %d beats", cfg.N, cfg.F, cfg.Seed, maxBeats)
	}
	// Closure: after convergence the clocks must stay in lockstep.
	st := sim.ReadClocks(e)
	prev, ok := st.Synced()
	if !ok {
		t.Fatalf("not synced at end of measurement")
	}
	for i := 0; i < 50; i++ {
		e.Step()
		v, ok := sim.ReadClocks(e).Synced()
		if !ok || v != (prev+1)%k {
			t.Fatalf("closure violated at beat %d: got (%d,%v) want %d", e.Beat(), v, ok, (prev+1)%k)
		}
		prev = v
	}
	return res
}

func TestTwoClockConvergesNoFaults(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			for seed := int64(0); seed < 5; seed++ {
				cfg := sim.Config{N: 4, F: 0, Seed: seed, ScrambleStart: true}
				converge(t, cfg, core.NewTwoClockProtocolLayout(coin.FMFactory{}, l), 2, 300)
			}
		})
	}
}

func TestTwoClockConvergesSilentByzantine(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			for _, n := range []int{4, 7, 10} {
				f := (n - 1) / 3
				cfg := sim.Config{N: n, F: f, Seed: int64(n), NewAdversary: silentAdv}
				converge(t, cfg, core.NewTwoClockProtocolLayout(coin.FMFactory{}, l), 2, 400)
			}
		})
	}
}

func TestTwoClockConvergesRabinCoin(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			for seed := int64(0); seed < 10; seed++ {
				cfg := sim.Config{N: 7, F: 2, Seed: seed, NewAdversary: silentAdv, ScrambleStart: true}
				converge(t, cfg, core.NewTwoClockProtocolLayout(coin.RabinFactory{Seed: seed}, l), 2, 200)
			}
		})
	}
}

func TestTwoClockAlternates(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			// Lemma 2: once synced the clock flips every beat — verified by
			// converge's closure loop with k=2; here we additionally check both
			// values occur.
			cfg := sim.Config{N: 4, F: 1, Seed: 3, NewAdversary: silentAdv, ScrambleStart: true}
			e := sim.New(cfg, core.NewTwoClockProtocolLayout(coin.RabinFactory{Seed: 1}, l))
			res := sim.MeasureConvergence(e, 2, 200, 10)
			if !res.Converged {
				t.Fatal("no convergence")
			}
			seen := map[uint64]bool{}
			for i := 0; i < 10; i++ {
				e.Step()
				v, ok := sim.ReadClocks(e).Synced()
				if !ok {
					t.Fatal("lost sync")
				}
				seen[v] = true
			}
			if !seen[0] || !seen[1] {
				t.Fatalf("clock not alternating: %v", seen)
			}
		})
	}
}

func TestTwoClockSelfStabilizes(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			cfg := sim.Config{N: 7, F: 2, Seed: 5, NewAdversary: silentAdv, ScrambleStart: true}
			e := sim.New(cfg, core.NewTwoClockProtocolLayout(coin.RabinFactory{Seed: 2}, l))
			res := sim.MeasureConvergence(e, 2, 200, 10)
			if !res.Converged {
				t.Fatal("no initial convergence")
			}
			for trial := 0; trial < 5; trial++ {
				e.ScrambleHonest()
				res := sim.MeasureConvergence(e, 2, 200, 10)
				if !res.Converged {
					t.Fatalf("trial %d: no re-convergence after scramble", trial)
				}
			}
		})
	}
}

func TestFourClockConvergesAndCycles(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			cfg := sim.Config{N: 4, F: 1, Seed: 7, NewAdversary: silentAdv, ScrambleStart: true}
			e := sim.New(cfg, core.NewFourClockProtocolLayout(coin.RabinFactory{Seed: 3}, l))
			res := sim.MeasureConvergence(e, 4, 400, 16)
			if !res.Converged {
				t.Fatal("no convergence")
			}
			// Theorem 3: pattern 0,1,2,3 repeating.
			var seq []uint64
			for i := 0; i < 12; i++ {
				e.Step()
				v, ok := sim.ReadClocks(e).Synced()
				if !ok {
					t.Fatal("lost sync")
				}
				seq = append(seq, v)
			}
			for i := 1; i < len(seq); i++ {
				if seq[i] != (seq[i-1]+1)%4 {
					t.Fatalf("pattern broken: %v", seq)
				}
			}
		})
	}
}

func TestFourClockWithFMCoin(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			cfg := sim.Config{N: 4, F: 1, Seed: 11, NewAdversary: silentAdv, ScrambleStart: true}
			converge(t, cfg, core.NewFourClockProtocolLayout(coin.FMFactory{}, l), 4, 600)
		})
	}
}

func TestClockSyncConvergesVariousK(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			for _, k := range []uint64{1, 2, 4, 16, 64, 1024} {
				cfg := sim.Config{N: 7, F: 2, Seed: int64(k), NewAdversary: silentAdv, ScrambleStart: true}
				converge(t, cfg, core.NewClockSyncProtocolLayout(k, coin.RabinFactory{Seed: 4}, l), k, 600)
			}
		})
	}
}

func TestClockSyncWithFMCoin(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			cfg := sim.Config{N: 4, F: 1, Seed: 13, NewAdversary: silentAdv, ScrambleStart: true}
			converge(t, cfg, core.NewClockSyncProtocolLayout(64, coin.FMFactory{}, l), 64, 900)
		})
	}
}

func TestClockSyncPassiveByzantine(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			cfg := sim.Config{N: 7, F: 2, Seed: 17, ScrambleStart: true}
			converge(t, cfg, core.NewClockSyncProtocolLayout(32, coin.RabinFactory{Seed: 5}, l), 32, 600)
		})
	}
}

func TestClockSyncSelfStabilizes(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			cfg := sim.Config{N: 7, F: 2, Seed: 19, NewAdversary: silentAdv, ScrambleStart: true}
			e := sim.New(cfg, core.NewClockSyncProtocolLayout(64, coin.RabinFactory{Seed: 6}, l))
			res := sim.MeasureConvergence(e, 64, 600, 16)
			if !res.Converged {
				t.Fatal("no initial convergence")
			}
			for trial := 0; trial < 3; trial++ {
				e.ScrambleHonest()
				res := sim.MeasureConvergence(e, 64, 600, 16)
				if !res.Converged {
					t.Fatalf("trial %d: no re-convergence after scramble", trial)
				}
			}
		})
	}
}

func TestClockSyncSurvivesPhantomMessages(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			// Definition 2.2: stale buffered messages delivered once must not
			// derail the protocol for longer than the convergence window.
			cfg := sim.Config{N: 7, F: 2, Seed: 23, NewAdversary: silentAdv, ScrambleStart: true}
			e := sim.New(cfg, core.NewClockSyncProtocolLayout(16, coin.RabinFactory{Seed: 7}, l))
			res := sim.MeasureConvergence(e, 16, 600, 16)
			if !res.Converged {
				t.Fatal("no initial convergence")
			}
			phantoms := []proto.Message{
				proto.Envelope{Child: 2, Inner: core.FullClockMsg{V: 9}},
				proto.Envelope{Child: 2, Inner: core.BitMsg{B: 1}},
				proto.Envelope{Child: 2, Inner: &core.ProposeMsg{V: 3}},
				proto.Envelope{Child: 0, Inner: proto.Envelope{Child: 0, Inner: proto.Envelope{Child: 0, Inner: core.TwoClockMsg{V: 1}}}},
			}
			for trial := 0; trial < 3; trial++ {
				e.InjectPhantoms(phantoms)
				res := sim.MeasureConvergence(e, 16, 600, 16)
				if !res.Converged {
					t.Fatalf("trial %d: no re-convergence after phantom injection", trial)
				}
			}
		})
	}
}

func TestTwoClockRejectsGarbageValues(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			// An adversary sending out-of-domain clock values must not crash or
			// stall the protocol.
			garbage := func(ctx *adversary.Context) adversary.Adversary {
				return garbageClockAdv{ctx: ctx}
			}
			cfg := sim.Config{N: 4, F: 1, Seed: 29, NewAdversary: garbage, ScrambleStart: true}
			converge(t, cfg, core.NewTwoClockProtocolLayout(coin.RabinFactory{Seed: 8}, l), 2, 300)
		})
	}
}

type garbageClockAdv struct {
	ctx *adversary.Context
}

func (a garbageClockAdv) Act(_ uint64, composed []adversary.Sends, _ []adversary.Intercept) []adversary.Sends {
	out := make([]adversary.Sends, 0, len(composed))
	for _, s := range composed {
		g := adversary.Sends{From: s.From}
		for to := 0; to < a.ctx.N; to++ {
			g.Out = append(g.Out, proto.Send{
				To:  to,
				Msg: proto.Envelope{Child: 0, Inner: core.TwoClockMsg{V: uint8(a.ctx.Rng.Intn(250)) + 3}},
			})
		}
		out = append(out, g)
	}
	return out
}
