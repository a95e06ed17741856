package multi_test

// Per-tenant convergence measurement on a multiplexed engine. That
// every tenant replays its standalone engine byte for byte — across
// worker counts, pool modes, kernels and tenant counts — is a set of
// cells of internal/difftest.

import (
	"testing"

	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/multi"
	"ssbyzclock/internal/sim"
)

const testK = 16

// TestMeasureConvergence: every tenant of a passive multiplexed run
// converges, and the per-tenant convergence beats match the standalone
// measurement exactly.
func TestMeasureConvergence(t *testing.T) {
	const n, f, T = 4, 1, 8
	const maxBeats, hold = 600, 8
	factory := core.NewClockSyncProtocolLayout(testK, coin.FMFactory{}, core.LayoutShared)
	cfg := multi.Config{
		Tenants: T,
		Workers: 4,
		Node: sim.Config{
			N: n, F: f, Seed: 99,
			ScrambleStart: true,
		},
	}
	m := multi.New(cfg, factory)
	res := multi.MeasureConvergence(m, testK, maxBeats, hold)
	for tt, r := range res {
		if !r.Converged {
			t.Fatalf("tenant %d did not converge in %d beats", tt, maxBeats)
		}
		oracle := sim.New(multi.TenantConfig(cfg, tt), factory)
		want := sim.MeasureConvergence(oracle, testK, maxBeats, hold)
		if r.ConvergedAt != want.ConvergedAt || r.ClosureViolations != want.ClosureViolations {
			t.Fatalf("tenant %d: ConvergedAt=%d violations=%d, standalone %d/%d",
				tt, r.ConvergedAt, r.ClosureViolations, want.ConvergedAt, want.ClosureViolations)
		}
	}
}
