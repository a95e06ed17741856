// The race detector makes sync.Pool drop items at random, so the pooled
// paths allocate freely under it; the gate runs without it only.

//go:build !race

package multi_test

import (
	"testing"

	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/multi"
	"ssbyzclock/internal/sim"
)

// TestStepSteadyStateAllocs gates the warm multiplexed beat's heap
// allocations in the benchmark's multi-tenant shape (n=4 f=1 tenants
// from scrambled states, shared-layout clock sync over the FM coin,
// k=64), at T=100 on one worker. Once the group pool and scratch are
// warm, a beat composes and delivers out of recycled memory. Measured
// on a 2-vCPU x86-64 Linux container: 0.010 allocations per
// tenant-beat, where boxing each phase-1 proposal cost 1.010. The
// bound, 0.1, is ten times the measurement; a per-beat box on any
// node's path fails it.
func TestStepSteadyStateAllocs(t *testing.T) {
	const tenants = 100
	cfg := multi.Config{
		Tenants: tenants,
		Workers: 1,
		Node:    sim.Config{N: 4, F: 1, Seed: 7, ScrambleStart: true},
	}
	m := multi.New(cfg, core.NewClockSyncProtocolLayout(64, coin.FMFactory{}, core.LayoutShared))
	m.Run(40)
	perTenantBeat := testing.AllocsPerRun(40, m.Step) / tenants
	t.Logf("%.3f allocations per tenant-beat", perTenantBeat)
	if perTenantBeat > 0.1 {
		t.Fatalf("warm multi.Engine.Step allocates %.3f times per tenant-beat, want at most 0.1", perTenantBeat)
	}
}
