package core_test

// The engine's metrics series on a shared registry. That a live
// registry never steers a run, and that its series equal the engine's
// counters, are cells of internal/difftest.

import (
	"testing"

	"ssbyzclock/internal/adversary"
	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/obs"
	"ssbyzclock/internal/sim"
)

// counterValue reads one counter series from a snapshot (0 if absent).
func counterValue(reg *obs.Registry, name string) float64 {
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			return s.Value
		}
	}
	return 0
}

// TestSharedRegistryAccumulates pins the shared-registry contract: two
// engines on one registry add into the same series (restart and
// multi-engine scraping both rely on it).
func TestSharedRegistryAccumulates(t *testing.T) {
	reg := obs.NewRegistry()
	run := func(seed int64) uint64 {
		eng := sim.New(sim.Config{
			N: 4, F: 1, Seed: seed, Workers: 1, ScrambleStart: true, Metrics: reg,
			NewAdversary: func(ctx *adversary.Context) adversary.Adversary { return &adversary.Replayer{Ctx: ctx} },
		}, core.NewClockSyncProtocolLayout(16, coin.FMFactory{}, core.LayoutShared))
		eng.Run(16)
		return eng.HonestMsgs
	}
	one := run(7)
	after1 := counterValue(reg, "ssbyz_engine_honest_msgs_total")
	two := run(9)
	if after1 != float64(one) {
		t.Fatalf("first run: series %v, engine %d", after1, one)
	}
	if got, want := counterValue(reg, "ssbyz_engine_honest_msgs_total"), float64(one+two); got != want {
		t.Fatalf("shared registry: series %v, want %v", got, want)
	}
}

// TestEnginePoolRecycledSeries checks the pool lease/recycle counter:
// with pooling on, every beat recycles the leased compose payloads, so
// the series must be positive and stable across worker counts.
func TestEnginePoolRecycledSeries(t *testing.T) {
	run := func(workers int) float64 {
		reg := obs.NewRegistry()
		cfg := sim.Config{
			N: 4, F: 1, Seed: 3, Workers: workers,
			Pool:    sim.PoolOn,
			Metrics: reg,
		}
		eng := sim.New(cfg, core.NewClockSyncProtocolLayout(16, coin.FMFactory{}, core.LayoutShared))
		eng.Run(12)
		return counterValue(reg, "ssbyz_engine_pool_recycled_total")
	}
	w1 := run(1)
	if w1 == 0 {
		t.Fatalf("pooled run recycled nothing")
	}
	if w8 := run(8); w8 != w1 {
		t.Fatalf("pool_recycled differs across workers: %v vs %v", w1, w8)
	}
}
