// Benchmark harness: one benchmark per paper artifact (the experiment
// functions of internal/experiments).
// Each benchmark runs the corresponding workload end to end and reports,
// besides ns/op, the domain metric that the paper's claim is about —
// beats-to-convergence (expected constant for this paper's algorithms,
// exponential/linear for the baselines), coin agreement rate, or per-beat
// message counts.
//
// Regenerate everything:
//
//	go test -bench=. -benchmem .
//
// The printable experiment tables (the paper's rows/series) come from
// `go run ./cmd/repro all`.
//
// The four simulator-cost series at the end (BenchmarkBeat,
// BenchmarkBeatMultiTenant, BenchmarkResidentTenants,
// BenchmarkBeatWorkers) are plain `go test -bench` runs with no recorded
// baseline: they chart scaling in n, in tenant count and in worker
// count. The repository's gated benchmark is bench/ (bench/README.md).
package ssbyzclock_test

import (
	"fmt"
	"testing"

	"ssbyzclock/internal/adversary"
	"ssbyzclock/internal/baseline"
	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/multi"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/sim"
	"ssbyzclock/internal/sscoin"
)

func silentAdv(*adversary.Context) adversary.Adversary { return adversary.Silent{} }
func splitterAdv(ctx *adversary.Context) adversary.Adversary {
	return &adversary.ClockSplitter{Ctx: ctx}
}

// benchConvergence runs one convergence measurement per iteration and
// reports the mean beats-to-convergence.
func benchConvergence(b *testing.B, n, f int, k uint64, maxBeats int,
	adv func(*adversary.Context) adversary.Adversary, factory sim.NodeFactory) {
	b.Helper()
	totalBeats := 0
	for i := 0; i < b.N; i++ {
		cfg := sim.Config{N: n, F: f, Seed: int64(i) + 1, NewAdversary: adv, ScrambleStart: true}
		e := sim.New(cfg, factory)
		res := sim.MeasureConvergence(e, k, maxBeats, 8)
		if res.Converged {
			totalBeats += res.ConvergedAt
		} else {
			totalBeats += maxBeats
		}
	}
	b.ReportMetric(float64(totalBeats)/float64(b.N), "beats/convergence")
}

// BenchmarkTable1 regenerates the Table 1 comparison: this paper's
// algorithm stays flat in n, Dolev–Welch grows exponentially in n-f,
// and the deterministic phase-king baseline grows linearly in f.
func BenchmarkTable1(b *testing.B) {
	for _, n := range []int{4, 7, 10, 13} {
		f := (n - 1) / 3
		b.Run(fmt.Sprintf("ClockSync/n=%d", n), func(b *testing.B) {
			benchConvergence(b, n, f, 64, 4000, silentAdv,
				core.NewClockSyncProtocol(64, coin.FMFactory{}))
		})
	}
	for _, n := range []int{4, 7, 10} {
		f := (n - 1) / 3
		b.Run(fmt.Sprintf("DolevWelch/n=%d", n), func(b *testing.B) {
			benchConvergence(b, n, f, 2, 60000, silentAdv, baseline.NewDolevWelchProtocol(2))
		})
	}
	for _, n := range []int{4, 7, 10, 13} {
		f := (n - 1) / 3
		b.Run(fmt.Sprintf("PhaseKing/n=%d", n), func(b *testing.B) {
			benchConvergence(b, n, f, 64, 4000, silentAdv, baseline.NewPhaseKingProtocol(64))
		})
	}
}

// BenchmarkFig1_CoinPipeline measures one beat of the pipelined FM coin
// and reports the agreement rate (Definition 2.7's per-beat E0/E1).
func BenchmarkFig1_CoinPipeline(b *testing.B) {
	for _, cse := range []struct{ n, f int }{{4, 1}, {7, 2}, {10, 3}} {
		b.Run(fmt.Sprintf("n=%d", cse.n), func(b *testing.B) {
			e := sim.New(sim.Config{N: cse.n, F: cse.f, Seed: 1, NewAdversary: silentAdv},
				func(env proto.Env) proto.Protocol { return sscoin.New(env, coin.FMFactory{}) })
			e.Run(coin.FMRounds + 1)
			agree := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
				if _, ok := sim.ReadBits(e).Agreed(); ok {
					agree++
				}
			}
			b.ReportMetric(float64(agree)/float64(b.N), "agreement-rate")
		})
	}
}

// BenchmarkFig2_TwoClock regenerates the Theorem 2 series: convergence of
// ss-Byz-2-Clock under the splitter, flat in n.
func BenchmarkFig2_TwoClock(b *testing.B) {
	for _, n := range []int{4, 7, 10, 13} {
		f := (n - 1) / 3
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchConvergence(b, n, f, 2, 2000, splitterAdv,
				core.NewTwoClockProtocol(coin.FMFactory{}))
		})
	}
}

// BenchmarkFig3_FourClock regenerates the Theorem 3 series.
func BenchmarkFig3_FourClock(b *testing.B) {
	for _, n := range []int{4, 7, 10} {
		f := (n - 1) / 3
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchConvergence(b, n, f, 4, 3000, silentAdv,
				core.NewFourClockProtocol(coin.FMFactory{}))
		})
	}
}

// BenchmarkFig4_ClockSync regenerates the Theorem 4 series: convergence
// independent of the clock modulus k.
func BenchmarkFig4_ClockSync(b *testing.B) {
	for _, k := range []uint64{4, 64, 1024} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			benchConvergence(b, 7, 2, k, 3000, splitterAdv,
				core.NewClockSyncProtocol(k, coin.FMFactory{}))
		})
	}
}

// BenchmarkAblation_Remark31 compares the published fresh-rand phase 3
// with the stale-rand variant under the oracle-equipped splitter (E6).
func BenchmarkAblation_Remark31(b *testing.B) {
	for _, stale := range []bool{false, true} {
		name := "fresh"
		if stale {
			name = "stale"
		}
		b.Run(name, func(b *testing.B) {
			totalBeats := 0
			for i := 0; i < b.N; i++ {
				var eng *sim.Engine
				cfg := sim.Config{
					N: 7, F: 2, Seed: int64(i) + 1, ScrambleStart: true,
					NewAdversary: func(ctx *adversary.Context) adversary.Adversary {
						return &adversary.Phase3Splitter{Ctx: ctx, BitOracle: func() byte {
							return eng.Node(0).(*core.ClockSync).RandBit()
						}}
					},
				}
				staleNow := stale
				eng = sim.New(cfg, func(env proto.Env) proto.Protocol {
					return core.NewClockSyncStale(env, 16, coin.RabinFactory{Seed: int64(i)}, staleNow)
				})
				res := sim.MeasureConvergence(eng, 16, 4000, 8)
				if res.Converged {
					totalBeats += res.ConvergedAt
				} else {
					totalBeats += 4000
				}
			}
			b.ReportMetric(float64(totalBeats)/float64(b.N), "beats/convergence")
		})
	}
}

// BenchmarkResilience sweeps f at n=10 across the n/3 boundary (E7).
func BenchmarkResilience(b *testing.B) {
	for f := 0; f <= 3; f++ {
		b.Run(fmt.Sprintf("f=%d", f), func(b *testing.B) {
			benchConvergence(b, 10, f, 16, 3000, splitterAdv,
				core.NewClockSyncProtocol(16, coin.FMFactory{}))
		})
	}
}

// BenchmarkMsgComplexity measures one beat of each protocol and reports
// per-node-beat message counts (E8).
func BenchmarkMsgComplexity(b *testing.B) {
	protos := []struct {
		name    string
		factory sim.NodeFactory
	}{
		{"ClockSyncFM", core.NewClockSyncProtocol(64, coin.FMFactory{})},
		{"ClockSyncRabin", core.NewClockSyncProtocol(64, coin.RabinFactory{Seed: 1})},
		{"DolevWelch", baseline.NewDolevWelchProtocol(64)},
		{"PhaseKing", baseline.NewPhaseKingProtocol(64)},
	}
	for _, pr := range protos {
		b.Run(pr.name+"/n=7", func(b *testing.B) {
			e := sim.New(sim.Config{N: 7, F: 2, Seed: 1}, pr.factory)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
			b.ReportMetric(float64(e.HonestMsgs)/float64(b.N)/5, "msgs/node-beat")
		})
	}
}

// BenchmarkAblation_CoinChoice compares the 2-clock under common vs
// non-common coins (E9): the local coin degrades to exponential guessing.
func BenchmarkAblation_CoinChoice(b *testing.B) {
	coins := []struct {
		name    string
		factory coin.Factory
	}{
		{"FM", coin.FMFactory{}},
		{"Rabin", coin.RabinFactory{Seed: 2}},
		{"Local", coin.LocalFactory{}},
	}
	for _, c := range coins {
		b.Run(c.name, func(b *testing.B) {
			benchConvergence(b, 7, 2, 2, 20000, silentAdv, core.NewTwoClockProtocol(c.factory))
		})
	}
}

// BenchmarkSelfStabilization measures re-convergence after a mid-run
// memory scramble (E10): it must match fresh-start convergence.
func BenchmarkSelfStabilization(b *testing.B) {
	e := sim.New(sim.Config{
		N: 7, F: 2, Seed: 1, NewAdversary: splitterAdv, ScrambleStart: true,
	}, core.NewClockSyncProtocol(16, coin.FMFactory{}))
	if res := sim.MeasureConvergence(e, 16, 3000, 8); !res.Converged {
		b.Fatal("no initial convergence")
	}
	totalBeats := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScrambleHonest()
		res := sim.MeasureConvergence(e, 16, 3000, 8)
		if res.Converged {
			totalBeats += res.ConvergedAt
		} else {
			totalBeats += 3000
		}
	}
	b.ReportMetric(float64(totalBeats)/float64(b.N), "beats/reconvergence")
}

// BenchmarkSection5_PowerClock regenerates E11: the recursive 2^j-clock
// construction's convergence grows with k, the reason the paper replaces
// it with ss-Byz-Clock-Sync.
func BenchmarkSection5_PowerClock(b *testing.B) {
	for _, k := range []uint64{4, 16, 64} {
		b.Run(fmt.Sprintf("PowerClock/k=%d", k), func(b *testing.B) {
			benchConvergence(b, 4, 1, k, 500*int(k), silentAdv,
				core.NewPowerClockProtocol(k, coin.RabinFactory{Seed: 1}))
		})
		b.Run(fmt.Sprintf("ClockSync/k=%d", k), func(b *testing.B) {
			benchConvergence(b, 4, 1, k, 500*int(k), silentAdv,
				core.NewClockSyncProtocol(k, coin.RabinFactory{Seed: 1}))
		})
	}
}

// BenchmarkSection61_DWAdapted regenerates E12: Dolev–Welch with the
// common coin (exponentially faster than the local-coin original, still
// k-dependent).
func BenchmarkSection61_DWAdapted(b *testing.B) {
	b.Run("local/k=2", func(b *testing.B) {
		benchConvergence(b, 10, 3, 2, 30000, silentAdv, baseline.NewDolevWelchProtocol(2))
	})
	b.Run("common/k=2", func(b *testing.B) {
		benchConvergence(b, 10, 3, 2, 30000, silentAdv,
			baseline.NewDolevWelchCommonProtocol(2, coin.RabinFactory{Seed: 3}))
	})
	b.Run("common/k=256", func(b *testing.B) {
		benchConvergence(b, 10, 3, 256, 30000, silentAdv,
			baseline.NewDolevWelchCommonProtocol(256, coin.RabinFactory{Seed: 3}))
	})
}

// BenchmarkBeat isolates the cost of a single beat of the full stack at
// several cluster sizes (throughput of the simulator itself). Workers is
// left at the default (GOMAXPROCS), so this is the number a user gets
// out of the box on the machine at hand.
//
// The ClockSyncFM series pins the shared coin pipeline of Remark 4.1 —
// the default layout — so it measures the same protocol
// regardless of the SSBYZ_COIN_LAYOUT environment; the ClockSyncFMPaper
// series keeps the paper layout's per-instance pipelines measurable
// forever. The ClockSyncFMSplitter row runs the n=16 beat under
// ClockSplitter from a scrambled start — bench/'s engine-n16 shape, the
// adversary boundary included. scripts/profile.sh profiles this
// benchmark.
func BenchmarkBeat(b *testing.B) {
	b.Run("ClockSyncFMSplitter/n=16", func(b *testing.B) {
		e := sim.New(sim.Config{N: 16, F: 5, Seed: 1, NewAdversary: splitterAdv, ScrambleStart: true},
			core.NewClockSyncProtocolLayout(64, coin.FMFactory{}, core.LayoutShared))
		e.Run(8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Step()
		}
	})
	for _, cse := range []struct{ n, f int }{{4, 1}, {7, 2}, {10, 3}, {16, 5}, {32, 10}} {
		b.Run(fmt.Sprintf("ClockSyncFM/n=%d", cse.n), func(b *testing.B) {
			e := sim.New(sim.Config{N: cse.n, F: cse.f, Seed: 1},
				core.NewClockSyncProtocolLayout(64, coin.FMFactory{}, core.LayoutShared))
			e.Run(8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
	for _, cse := range []struct{ n, f int }{{4, 1}, {7, 2}, {10, 3}, {16, 5}, {32, 10}} {
		b.Run(fmt.Sprintf("ClockSyncFMPaper/n=%d", cse.n), func(b *testing.B) {
			e := sim.New(sim.Config{N: cse.n, F: cse.f, Seed: 1},
				core.NewClockSyncProtocolLayout(64, coin.FMFactory{}, core.LayoutPaper))
			e.Run(8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}

// BenchmarkBeatMultiTenant is the aggregate-throughput series for the
// multi-tenant multiplexer: one op is one lockstep beat of T
// independent n-node instances on one engine (shared scheduler, shared
// pool arenas, stacked kernel passes), so ns/op ÷ T is the marginal
// per-instance beat cost and tenant-beats/sec is the service-scale
// throughput number. Compare against T × the single-instance
// ClockSyncFM rows to read the multiplexing win; B/op and allocs/op ÷ T
// are the per-instance marginal allocation cost.
func BenchmarkBeatMultiTenant(b *testing.B) {
	for _, cse := range []struct{ n, f int }{{4, 1}, {7, 2}} {
		for _, tenants := range []int{100, 1000, 10000} {
			b.Run(fmt.Sprintf("ClockSyncFM/n=%d/T=%d", cse.n, tenants), func(b *testing.B) {
				m := multi.New(multi.Config{
					Tenants: tenants,
					Node:    sim.Config{N: cse.n, F: cse.f, Seed: 1},
				}, core.NewClockSyncProtocolLayout(64, coin.FMFactory{}, core.LayoutShared))
				m.Run(2)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Step()
				}
				b.ReportMetric(float64(tenants)*float64(b.N)/b.Elapsed().Seconds(), "tenant-beats/sec")
			})
		}
	}
}

// BenchmarkResidentTenants is the resident-memory series: one op builds
// a T-tenant multiplexed engine, runs it to steady state (12 warm
// beats, matching the footprint regression test), and measures the
// live-heap delta per tenant via multi.MeasureFootprint, reported as
// resident-bytes/tenant; ns/op here is the cost of building and warming
// the whole fleet. Run with -benchtime=1x — the reading is a
// steady-state property, not a throughput, so one iteration IS the
// measurement and extra iterations only repeat the forced GCs. The
// T=10⁵ shapes hold several GB; select shapes with -bench on small
// machines.
func BenchmarkResidentTenants(b *testing.B) {
	for _, cse := range []struct{ n, f int }{{4, 1}, {7, 2}} {
		for _, tenants := range []int{1000, 10000, 100000} {
			b.Run(fmt.Sprintf("ClockSyncFM/n=%d/T=%d", cse.n, tenants), func(b *testing.B) {
				var fp multi.Footprint
				for i := 0; i < b.N; i++ {
					fp = multi.MeasureFootprint(multi.Config{
						Tenants: tenants,
						Node:    sim.Config{N: cse.n, F: cse.f, Seed: 11, ScrambleStart: true},
					}, core.NewClockSyncProtocolLayout(64, coin.FMFactory{}, core.LayoutShared), 12)
				}
				b.ReportMetric(fp.BytesPerTenant, "resident-bytes/tenant")
				b.ReportMetric(float64(fp.Tenants), "resident-tenants")
			})
		}
	}
}

// BenchmarkBeatWorkers is the worker-count scaling series for the
// parallel beat scheduler (PERF.md's methodology section): the same
// full-stack beat at explicit worker counts. On a machine with fewer
// cores than workers the extra workers are pure scheduling overhead, so
// the series doubles as a measurement of that overhead's bound.
func BenchmarkBeatWorkers(b *testing.B) {
	for _, cse := range []struct{ n, f int }{{16, 5}, {32, 10}} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("ClockSyncFM/n=%d/workers=%d", cse.n, workers), func(b *testing.B) {
				e := sim.New(sim.Config{N: cse.n, F: cse.f, Seed: 1, Workers: workers},
					core.NewClockSyncProtocolLayout(64, coin.FMFactory{}, core.LayoutShared))
				e.Run(8)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.Step()
				}
			})
		}
	}
}
