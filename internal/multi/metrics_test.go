package multi_test

import (
	"testing"

	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/multi"
	"ssbyzclock/internal/obs"
	"ssbyzclock/internal/sim"
)

func seriesValue(reg *obs.Registry, name string) (float64, bool) {
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			return s.Value, true
		}
	}
	return 0, false
}

// TestMultiMetricsAggregate checks the multiplexed engine's aggregate
// series against ground truth: tenant gauge = T, beats = steps,
// tenant-beats = T x steps, and the summed message/byte counters equal
// the engine's own cumulative sums. Also pins the deliberate design
// choice that tenants are NOT per-series labeled (cardinality at
// service scale), and that per-tenant determinism is untouched by
// instrumentation.
func TestMultiMetricsAggregate(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			const T, beats = 6, 10
			factory := core.NewClockSyncProtocolLayout(16, coin.FMFactory{}, l)
			build := func(reg *obs.Registry) *multi.Engine {
				return multi.New(multi.Config{
					Tenants: T,
					Workers: 2,
					Node:    sim.Config{N: 4, F: 1, Seed: 21, CountBytes: true, ScrambleStart: true},
					Metrics: reg,
				}, factory)
			}
			reg := obs.NewRegistry()
			m := build(reg)
			m.ScrambleHonest()
			m.Run(beats)

			checks := []struct {
				series string
				want   float64
			}{
				{"ssbyz_multi_tenants", T},
				{"ssbyz_multi_beats_total", beats},
				{"ssbyz_multi_tenant_beats_total", T * beats},
				{"ssbyz_multi_honest_msgs_total", float64(m.HonestMsgs())},
				{"ssbyz_multi_faulty_msgs_total", float64(m.FaultyMsgs())},
				{"ssbyz_multi_honest_bytes_total", float64(m.HonestBytes())},
			}
			for _, c := range checks {
				got, ok := seriesValue(reg, c.series)
				if !ok {
					t.Fatalf("series %s missing", c.series)
				}
				if got != c.want {
					t.Fatalf("%s = %v, want %v", c.series, got, c.want)
				}
			}
			// No per-tenant labels anywhere: every multi series is aggregate.
			for _, s := range reg.Snapshot() {
				for _, l := range s.Labels {
					if l.Key == "tenant" {
						t.Fatalf("series %s carries a tenant label; multi must stay aggregate", s.Name)
					}
				}
			}

			// Instrumentation must not perturb tenant behavior: clocks equal a
			// detached run's, beat for beat.
			ref := build(nil)
			ref.ScrambleHonest()
			ref.Run(beats)
			for tn := 0; tn < T; tn++ {
				a := sim.ReadClocks(m.Tenant(tn))
				b := sim.ReadClocks(ref.Tenant(tn))
				for i := range a.Values {
					if a.Values[i] != b.Values[i] {
						t.Fatalf("tenant %d node %d: instrumented clock %d != detached %d", tn, i, a.Values[i], b.Values[i])
					}
				}
			}
		})
	}
}

// TestMultiMeasureConvergenceGauges checks that a convergence
// measurement drives the converged-tenants gauge to T on a clean run.
func TestMultiMeasureConvergenceGauges(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			const T = 4
			reg := obs.NewRegistry()
			m := multi.New(multi.Config{
				Tenants: T,
				Node:    sim.Config{N: 4, F: 1, Seed: 9, ScrambleStart: true},
				Metrics: reg,
			}, core.NewClockSyncProtocolLayout(16, coin.FMFactory{}, l))
			m.ScrambleHonest()
			res := multi.MeasureConvergence(m, 16, 400, 8)
			converged := 0
			for _, r := range res {
				if r.Converged {
					converged++
				}
			}
			got, ok := seriesValue(reg, "ssbyz_multi_converged_tenants")
			if !ok {
				t.Fatalf("converged gauge missing")
			}
			if int(got) != converged {
				t.Fatalf("converged gauge %v, measurement says %d", got, converged)
			}
			if converged != T {
				t.Logf("note: only %d/%d tenants converged within budget", converged, T)
			}
		})
	}
}
