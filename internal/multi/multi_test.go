package multi_test

// Differential harness for multi-tenant multiplexing: a T-tenant
// engine must replay byte-identically, per tenant, to T independent
// single-tenant engines built from the same per-tenant configs — same
// per-beat clock traces, same phase-3 rand streams, same cumulative
// message and byte metrics — across the adversary suite, cluster
// sizes 4/8/16, shared-scheduler worker counts 1 and 8, and pool
// modes on/poison (plus an unpooled run), through a mid-run memory
// scramble.
//
// This is the proof that none of the multiplexing machinery leaks
// across tenants: not the shared group pools (poison mode scribbles
// recycled buffers, so any cross-tenant payload aliasing corrupts a
// trace), and not the interleaved phase fan-outs.

import (
	"fmt"
	"testing"

	"ssbyzclock/internal/adversary"
	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/field"
	"ssbyzclock/internal/multi"
	"ssbyzclock/internal/sim"
)

// advCase mirrors the core suite: mk builds a per-engine adversary
// constructor; eng lets oracle-equipped attacks read the public bit
// from the engine they run inside (assigned after construction, before
// the first Step).
type advCase struct {
	name string
	mk   func(eng **sim.Engine) func(*adversary.Context) adversary.Adversary
}

func adversarySuite() []advCase {
	return []advCase{
		{"replayer", func(**sim.Engine) func(*adversary.Context) adversary.Adversary {
			return func(ctx *adversary.Context) adversary.Adversary { return &adversary.Replayer{Ctx: ctx} }
		}},
		{"kingspoiler", func(**sim.Engine) func(*adversary.Context) adversary.Adversary {
			return func(ctx *adversary.Context) adversary.Adversary { return &adversary.KingSpoiler{Ctx: ctx} }
		}},
		{"oraclesplitter", func(eng **sim.Engine) func(*adversary.Context) adversary.Adversary {
			return func(ctx *adversary.Context) adversary.Adversary {
				return &adversary.OracleSplitter{Ctx: ctx, BitOracle: func() byte {
					return (*eng).Node(0).(*core.ClockSync).RandBit()
				}}
			}
		}},
		{"phase3", func(eng **sim.Engine) func(*adversary.Context) adversary.Adversary {
			return func(ctx *adversary.Context) adversary.Adversary {
				return &adversary.Phase3Splitter{Ctx: ctx, BitOracle: func() byte {
					return (*eng).Node(0).(*core.ClockSync).RandBit()
				}}
			}
		}},
		{"coinattack", func(**sim.Engine) func(*adversary.Context) adversary.Adversary {
			return func(ctx *adversary.Context) adversary.Adversary {
				return adversary.Chain{Advs: []adversary.Adversary{
					&adversary.GradeSplitter{Ctx: ctx},
					&adversary.ShareCorruptor{Ctx: ctx},
					&adversary.RecoverCorruptor{Ctx: ctx},
				}}
			}
		}},
	}
}

// trace fingerprints one tenant's run: per-beat honest clock values
// and rand bits, plus cumulative metrics (bytes are content-sensitive:
// a single stale byte in any payload changes them).
type trace struct {
	clocks      [][]uint64
	rands       [][]byte
	honestMsgs  uint64
	faultyMsgs  uint64
	honestBytes uint64
}

func snapshot(tr *trace, eng *sim.Engine) {
	st := sim.ReadClocks(eng)
	tr.clocks = append(tr.clocks, append([]uint64(nil), st.Values...))
	rands := make([]byte, 0, len(st.Values))
	for _, id := range eng.HonestIDs() {
		rands = append(rands, eng.Node(id).(*core.ClockSync).RandBit())
	}
	tr.rands = append(tr.rands, rands)
}

func finishTrace(tr *trace, eng *sim.Engine) {
	tr.honestMsgs, tr.faultyMsgs, tr.honestBytes = eng.HonestMsgs, eng.FaultyMsgs, eng.HonestBytes
}

const testK = 16

func tenantConfig(n, f int, seed int64, adv advCase, mode sim.PoolMode, engPtr **sim.Engine) sim.Config {
	return sim.Config{
		N: n, F: f, Seed: seed,
		CountBytes:    true,
		ScrambleStart: true,
		Pool:          mode,
		NewAdversary:  adv.mk(engPtr),
	}
}

// runOracle runs tenant seed's standalone single-tenant engine.
func runOracle(n, f int, seed int64, adv advCase, mode sim.PoolMode, beats int) trace {
	var eng *sim.Engine
	cfg := tenantConfig(n, f, seed, adv, mode, &eng)
	cfg.Workers = 1
	eng = sim.New(cfg, core.NewClockSyncProtocolLayout(testK, coin.FMFactory{}, core.LayoutShared))
	var tr trace
	for i := 0; i < beats; i++ {
		eng.Step()
		snapshot(&tr, eng)
	}
	eng.ScrambleHonest()
	for i := 0; i < beats; i++ {
		eng.Step()
		snapshot(&tr, eng)
	}
	finishTrace(&tr, eng)
	return tr
}

// runMulti runs T tenants (seeds seed..seed+T-1) multiplexed on one
// engine and returns each tenant's trace.
func runMulti(n, f, T int, seed int64, adv advCase, mode sim.PoolMode, workers, beats int) []trace {
	engPtrs := make([]*sim.Engine, T)
	cfg := multi.Config{
		Tenants: T,
		Workers: workers,
		NodeFor: func(t int) sim.Config {
			return tenantConfig(n, f, seed+int64(t), adv, mode, &engPtrs[t])
		},
	}
	m := multi.New(cfg, core.NewClockSyncProtocolLayout(testK, coin.FMFactory{}, core.LayoutShared))
	for t := 0; t < T; t++ {
		engPtrs[t] = m.Tenant(t)
	}
	trs := make([]trace, T)
	record := func(count int) {
		for i := 0; i < count; i++ {
			m.Step()
			for t := 0; t < T; t++ {
				snapshot(&trs[t], m.Tenant(t))
			}
		}
	}
	record(beats)
	m.ScrambleHonest()
	record(beats)
	for t := 0; t < T; t++ {
		finishTrace(&trs[t], m.Tenant(t))
	}
	return trs
}

func diffTraces(t *testing.T, want, got trace, label string) {
	t.Helper()
	if got.honestMsgs != want.honestMsgs || got.faultyMsgs != want.faultyMsgs || got.honestBytes != want.honestBytes {
		t.Fatalf("%s: metrics diverged: honest %d vs %d, faulty %d vs %d, bytes %d vs %d",
			label, got.honestMsgs, want.honestMsgs, got.faultyMsgs, want.faultyMsgs,
			got.honestBytes, want.honestBytes)
	}
	for b := range want.clocks {
		for i := range want.clocks[b] {
			if got.clocks[b][i] != want.clocks[b][i] {
				t.Fatalf("%s: clock trace diverged at beat %d node %d: %d vs %d",
					label, b, i, got.clocks[b][i], want.clocks[b][i])
			}
		}
		for i := range want.rands[b] {
			if got.rands[b][i] != want.rands[b][i] {
				t.Fatalf("%s: rand trace diverged at beat %d honest#%d", label, b, i)
			}
		}
	}
}

// TestMultiTenantDifferential is the headline equivalence proof:
// multiplexed tenants replay their standalone oracles bit for bit
// across the adversary suite × n ∈ {4,8,16} × workers {1,8} × pool
// on/poison. The oracle side runs plain pooled, so on-vs-poison also
// cross-checks the group pools' recycling discipline.
func TestMultiTenantDifferential(t *testing.T) {
	suite := adversarySuite()
	for _, n := range []int{4, 8, 16} {
		f := (n - 1) / 3
		T := 3
		beats := 32
		advs := suite
		switch n {
		case 8:
			beats = 24
		case 16:
			// Beats cost milliseconds at n=16; two suite members cover the
			// recording adversary (pool-lifetime sensitive) and the
			// coin-directed chain (deep GVSS corruption).
			beats = 8
			advs = []advCase{suite[0], suite[4]}
		}
		for _, adv := range advs {
			t.Run(fmt.Sprintf("n=%d/%s", n, adv.name), func(t *testing.T) {
				oracles := make([]trace, T)
				for tt := 0; tt < T; tt++ {
					oracles[tt] = runOracle(n, f, 7+int64(tt), adv, sim.PoolOn, beats)
				}
				for _, workers := range []int{1, 8} {
					for _, mode := range []sim.PoolMode{sim.PoolOn, sim.PoolPoison} {
						got := runMulti(n, f, T, 7, adv, mode, workers, beats)
						for tt := 0; tt < T; tt++ {
							diffTraces(t, oracles[tt], got[tt],
								fmt.Sprintf("tenant %d, workers=%d, mode=%d", tt, workers, mode))
						}
					}
				}
			})
		}
	}
}

// TestMultiTenantUnpooled covers the pool-off path: no group pools,
// every lease fresh memory.
func TestMultiTenantUnpooled(t *testing.T) {
	adv := adversarySuite()[0]
	const n, f, T, beats = 4, 1, 4, 24
	oracle := make([]trace, T)
	for tt := 0; tt < T; tt++ {
		oracle[tt] = runOracle(n, f, 31+int64(tt), adv, sim.PoolOff, beats)
	}
	got := runMulti(n, f, T, 31, adv, sim.PoolOff, 8, beats)
	for tt := 0; tt < T; tt++ {
		diffTraces(t, oracle[tt], got[tt], fmt.Sprintf("unpooled tenant %d", tt))
	}
}

// TestMultiTenantScalarRefs: T tenants at two cluster sizes, sharing one
// worker group's pool, run every grid evaluation shape the protocol
// stack issues. Run on the scalar references and on the installed
// kernel set, every tenant's clocks, rand stream and metrics must match
// byte for byte.
func TestMultiTenantScalarRefs(t *testing.T) {
	splitter := advCase{"splitter", func(**sim.Engine) func(*adversary.Context) adversary.Adversary {
		return func(ctx *adversary.Context) adversary.Adversary { return &adversary.ClockSplitter{Ctx: ctx} }
	}}
	const T, beats = 8, 16
	for _, n := range []int{4, 7} {
		f := (n - 1) / 3
		var ref []trace
		func() {
			defer field.UseScalarRefs(field.UseScalarRefs(true))
			ref = runMulti(n, f, T, 51, splitter, sim.PoolOn, 1, beats)
		}()
		got := runMulti(n, f, T, 51, splitter, sim.PoolOn, 1, beats)
		for tt := 0; tt < T; tt++ {
			diffTraces(t, ref[tt], got[tt], fmt.Sprintf("n=%d tenant %d, installed kernels vs scalar refs", n, tt))
		}
	}
}

// TestMultiTenantT100Oracle is the smoke-scale grid the CI job runs: a
// hundred tenants multiplexed on one engine match a hundred standalone
// oracles, and convergence measurement sees every tenant converge.
func TestMultiTenantT100Oracle(t *testing.T) {
	adv := adversarySuite()[0]
	const n, f, T, beats = 4, 1, 100, 12
	got := runMulti(n, f, T, 1000, adv, sim.PoolOn, 8, beats)
	for tt := 0; tt < T; tt++ {
		oracle := runOracle(n, f, 1000+int64(tt), adv, sim.PoolOn, beats)
		diffTraces(t, oracle, got[tt], fmt.Sprintf("tenant %d", tt))
	}
}

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
