// Package experiments implements the reproduction harness: one function
// per experiment (Table 1 and the validation of Figures 1-4, plus the
// ablations). cmd/repro prints them; bench_test.go wraps
// them as benchmarks; EXPERIMENTS.md records the measured outputs
// against the paper's claims.
package experiments

import (
	"fmt"
	"io"

	"ssbyzclock/internal/adversary"
	"ssbyzclock/internal/baseline"
	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/sim"
	"ssbyzclock/internal/sscoin"
	"ssbyzclock/internal/stats"
	"ssbyzclock/internal/sweep"
)

// Params tunes experiment size. Zero values select the defaults used in
// EXPERIMENTS.md.
type Params struct {
	// Runs is the number of independent seeds per configuration.
	Runs int
	// MaxBeats caps each run.
	MaxBeats int
	// Hold is the consecutive-synced-beats requirement when declaring
	// convergence.
	Hold int
}

func (p Params) orDefault(runs, maxBeats, hold int) Params {
	if p.Runs == 0 {
		p.Runs = runs
	}
	if p.MaxBeats == 0 {
		p.MaxBeats = maxBeats
	}
	if p.Hold == 0 {
		p.Hold = hold
	}
	return p
}

func silent(*adversary.Context) adversary.Adversary { return adversary.Silent{} }
func splitter(ctx *adversary.Context) adversary.Adversary {
	return &adversary.ClockSplitter{Ctx: ctx}
}
func gradeSplitter(ctx *adversary.Context) adversary.Adversary {
	return &adversary.GradeSplitter{Ctx: ctx}
}

// convergenceSample measures beats-to-convergence over p.Runs seeds.
// Unconverged runs contribute MaxBeats (a lower bound on truth).
func convergenceSample(p Params, n, f int, k uint64,
	adv func(*adversary.Context) adversary.Adversary, factory sim.NodeFactory) (*stats.Sample, int) {
	var s stats.Sample
	failures := 0
	for seed := 0; seed < p.Runs; seed++ {
		cfg := sim.Config{
			N: n, F: f, Seed: int64(seed)*7 + 1,
			NewAdversary: adv, ScrambleStart: true,
		}
		e := sim.New(cfg, factory)
		res := sim.MeasureConvergence(e, k, p.MaxBeats, p.Hold)
		if res.Converged {
			s.AddInt(res.ConvergedAt)
		} else {
			s.AddInt(p.MaxBeats)
			failures++
		}
	}
	return &s, failures
}

// Table1 reproduces the paper's Table 1 as measurements: expected
// convergence time of this paper's algorithm (flat in n), the
// Dolev–Welch-style probabilistic baseline (exponential in n-f), and the
// deterministic phase-king baseline (linear in f). Resiliency columns
// restate each protocol's bound.
func Table1(w io.Writer, p Params) {
	p = p.orDefault(10, 60000, 12)
	fmt.Fprintln(w, "E1 / Table 1 — convergence time (beats) by protocol and n, f = floor((n-1)/3)")
	fmt.Fprintln(w, "adversary: silent (crash) for all protocols; ScrambleStart on; unconverged runs count as MaxBeats")
	t := stats.NewTable("protocol", "model", "resiliency", "n", "f", "mean", "p95", "fails")
	addRow := func(name, model, resil string, n, f int, s *stats.Sample, fails int) {
		t.AddRow(name, model, resil, fmt.Sprint(n), fmt.Sprint(f),
			fmt.Sprintf("%.1f", s.Mean()), fmt.Sprintf("%.0f", s.Quantile(0.95)), fmt.Sprint(fails))
	}
	for _, n := range []int{4, 7, 10, 13, 16} {
		f := (n - 1) / 3
		s, fails := convergenceSample(p, n, f, 64, silent,
			core.NewClockSyncProtocol(64, coin.FMFactory{}))
		addRow("ss-Byz-Clock-Sync (this paper)", "sync, probabilistic", "f<n/3", n, f, s, fails)
	}
	for _, n := range []int{4, 7, 10, 13} {
		// k=2 keeps the exponential baseline measurable; n=16 would need
		// ~2^10 more budget than the table's cap.
		f := (n - 1) / 3
		s, fails := convergenceSample(p, n, f, 2, silent, baseline.NewDolevWelchProtocol(2))
		addRow("Dolev-Welch [10]", "sync, probabilistic", "f<n/3", n, f, s, fails)
	}
	for _, n := range []int{4, 7, 10, 13, 16} {
		// Worst case for the deterministic baseline: the faulty ids come
		// first in the king rotation and spoil their own epochs, so
		// convergence waits ~f epochs — the O(f) row of Table 1.
		f := (n - 1) / 3
		var s stats.Sample
		fails := 0
		for seed := 0; seed < p.Runs; seed++ {
			faulty := make([]int, f)
			for i := range faulty {
				faulty[i] = i
			}
			cfg := sim.Config{
				N: n, F: f, Seed: int64(seed)*7 + 1, Faulty: faulty, ScrambleStart: true,
				NewAdversary: func(ctx *adversary.Context) adversary.Adversary {
					return &adversary.KingSpoiler{Ctx: ctx}
				},
			}
			e := sim.New(cfg, baseline.NewPhaseKingProtocol(64))
			res := sim.MeasureConvergence(e, 64, p.MaxBeats, p.Hold)
			if res.Converged {
				s.AddInt(res.ConvergedAt)
			} else {
				s.AddInt(p.MaxBeats)
				fails++
			}
		}
		addRow("PhaseKing (for [15]/[7], worst case)", "sync, deterministic", "f<n/3", n, f, &s, fails)
	}
	fmt.Fprintln(w, t)
	fmt.Fprintln(w, "paper's claim: row 1 O(1) flat; row 2 exponential in n-f; row 3 O(f) linear")
	fmt.Fprintln(w, "(PhaseKing runs against a king-spoiling adversary on the first f king slots).")
}

// CoinQuality measures Definition 2.6/2.7's properties of the pipelined
// FM coin (Figure 1 / E2): agreement rate, p0 and p1 estimates, and
// recovery within Δ_A beats after a scramble, across adversaries.
func CoinQuality(w io.Writer, p Params) {
	p = p.orDefault(3, 400, 0)
	fmt.Fprintln(w, "E2 / Figure 1 — ss-Byz-Coin-Flip quality (FM coin), per beat over", p.MaxBeats, "beats x", p.Runs, "seeds")
	t := stats.NewTable("n", "f", "adversary", "agree%", "p0-hat", "p1-hat", "post-scramble agree%")
	advs := []struct {
		name string
		mk   func(*adversary.Context) adversary.Adversary
	}{
		{"passive", nil},
		{"silent", silent},
		{"grade-splitter", gradeSplitter},
		{"share-corruptor", func(ctx *adversary.Context) adversary.Adversary {
			return &adversary.ShareCorruptor{Ctx: ctx}
		}},
	}
	for _, cse := range []struct{ n, f int }{{4, 1}, {7, 2}, {10, 3}} {
		for _, av := range advs {
			agreeBeats, zeros, ones, total := 0, 0, 0, 0
			postAgree, postTotal := 0, 0
			for seed := 0; seed < p.Runs; seed++ {
				cfg := sim.Config{N: cse.n, F: cse.f, Seed: int64(seed) + 5, NewAdversary: av.mk}
				e := sim.New(cfg, func(env proto.Env) proto.Protocol {
					return sscoin.New(env, coin.FMFactory{})
				})
				e.Run(coin.FMRounds + 1)
				for i := 0; i < p.MaxBeats; i++ {
					e.Step()
					total++
					if b, ok := sim.ReadBits(e).Agreed(); ok {
						agreeBeats++
						if b == 0 {
							zeros++
						} else {
							ones++
						}
					}
				}
				// Scramble, allow Δ_A beats, then measure again (Lemma 1).
				e.ScrambleHonest()
				e.Run(coin.FMRounds)
				for i := 0; i < 50; i++ {
					e.Step()
					postTotal++
					if _, ok := sim.ReadBits(e).Agreed(); ok {
						postAgree++
					}
				}
			}
			t.AddRow(fmt.Sprint(cse.n), fmt.Sprint(cse.f), av.name,
				pct(agreeBeats, total), pct(zeros, total), pct(ones, total), pct(postAgree, postTotal))
		}
	}
	fmt.Fprintln(w, t)
	fmt.Fprintln(w, "claims: agree% constant (not shrinking with n); p0,p1 both constant > 0;")
	fmt.Fprintln(w, "post-scramble agree% equals steady state (convergence = Δ_A, Lemma 1).")
}

// TwoClock validates Figure 2 / Theorem 2 (E3): expected-constant
// convergence flat in n, and the exponential tail P[T > t].
func TwoClock(w io.Writer, p Params) {
	p = p.orDefault(30, 2000, 8)
	fmt.Fprintln(w, "E3 / Figure 2 — ss-Byz-2-Clock convergence (FM coin, splitter adversary)")
	t := stats.NewTable("n", "f", "mean", "p50", "p95", "max", "fails")
	tails := map[int]*stats.Sample{}
	for _, n := range []int{4, 7, 10, 13} {
		f := (n - 1) / 3
		s, fails := convergenceSample(p, n, f, 2, splitter, core.NewTwoClockProtocol(coin.FMFactory{}))
		tails[n] = s
		t.AddRow(fmt.Sprint(n), fmt.Sprint(f), fmt.Sprintf("%.1f", s.Mean()),
			fmt.Sprintf("%.0f", s.Median()), fmt.Sprintf("%.0f", s.Quantile(0.95)),
			fmt.Sprintf("%.0f", s.Max()), fmt.Sprint(fails))
	}
	fmt.Fprintln(w, t)
	fmt.Fprintln(w, "tail (n=7): fraction of runs still unconverged after t beats")
	tl := stats.NewTable("t", "P[T>t]")
	s := tails[7]
	for _, tt := range []float64{5, 10, 20, 40} {
		tl.AddRow(fmt.Sprintf("%.0f", tt),
			fmt.Sprintf("%.2f", float64(s.CountGreater(tt))/float64(s.N())))
	}
	fmt.Fprintln(w, tl)
	fmt.Fprintln(w, "claims: mean flat in n (expected constant, Theorem 2); tail decays geometrically.")
}

// FourClock validates Figure 3 / Theorem 3 (E4).
func FourClock(w io.Writer, p Params) {
	p = p.orDefault(30, 3000, 16)
	fmt.Fprintln(w, "E4 / Figure 3 — ss-Byz-4-Clock convergence and 0,1,2,3 cycling (FM coin, silent adversary)")
	t := stats.NewTable("n", "f", "mean", "p95", "fails")
	for _, n := range []int{4, 7, 10} {
		f := (n - 1) / 3
		s, fails := convergenceSample(p, n, f, 4, silent, core.NewFourClockProtocol(coin.FMFactory{}))
		t.AddRow(fmt.Sprint(n), fmt.Sprint(f), fmt.Sprintf("%.1f", s.Mean()),
			fmt.Sprintf("%.0f", s.Quantile(0.95)), fmt.Sprint(fails))
	}
	fmt.Fprintln(w, t)
	fmt.Fprintln(w, "claim: expected constant convergence; closure = cycling 0,1,2,3 (checked by Hold).")
}

// ClockSync validates Figure 4 / Theorem 4 (E5): convergence independent
// of k.
func ClockSync(w io.Writer, p Params) {
	p = p.orDefault(20, 3000, 16)
	fmt.Fprintln(w, "E5 / Figure 4 — ss-Byz-Clock-Sync convergence vs k (n=7, f=2, FM coin, splitter adversary)")
	t := stats.NewTable("k", "mean", "p95", "fails")
	for _, k := range []uint64{4, 16, 64, 256, 1024} {
		s, fails := convergenceSample(p, 7, 2, k, splitter, core.NewClockSyncProtocol(k, coin.FMFactory{}))
		t.AddRow(fmt.Sprint(k), fmt.Sprintf("%.1f", s.Mean()),
			fmt.Sprintf("%.0f", s.Quantile(0.95)), fmt.Sprint(fails))
	}
	fmt.Fprintln(w, t)
	fmt.Fprintln(w, "claim: convergence independent of k (constant overhead over the 4-clock).")
}

// AblationRand is E6: the Remark 3.1 rand-timing ablation at the
// clock-sync layer, under the oracle-equipped phase-3 splitter.
func AblationRand(w io.Writer, p Params) {
	p = p.orDefault(30, 4000, 16)
	fmt.Fprintln(w, "E6 / Remark 3.1 — rand timing ablation (n=7, f=2, k=16, Rabin coin, phase-3 splitter with bit oracle)")
	t := stats.NewTable("variant", "mean", "p95", "max", "fails")
	for _, stale := range []bool{false, true} {
		var s stats.Sample
		fails := 0
		for seed := 0; seed < p.Runs; seed++ {
			var eng *sim.Engine
			cfg := sim.Config{
				N: 7, F: 2, Seed: int64(seed) + 11, ScrambleStart: true,
				NewAdversary: func(ctx *adversary.Context) adversary.Adversary {
					return &adversary.Phase3Splitter{Ctx: ctx, BitOracle: func() byte {
						return eng.Node(0).(*core.ClockSync).RandBit()
					}}
				},
			}
			staleNow := stale
			eng = sim.New(cfg, func(env proto.Env) proto.Protocol {
				return core.NewClockSyncStale(env, 16, coin.RabinFactory{Seed: int64(seed)}, staleNow)
			})
			res := sim.MeasureConvergence(eng, 16, p.MaxBeats, p.Hold)
			if res.Converged {
				s.AddInt(res.ConvergedAt)
			} else {
				s.AddInt(p.MaxBeats)
				fails++
			}
		}
		name := "fresh rand (published)"
		if stale {
			name = "stale rand (broken per Remark 3.1)"
		}
		t.AddRow(name, fmt.Sprintf("%.1f", s.Mean()), fmt.Sprintf("%.0f", s.Quantile(0.95)),
			fmt.Sprintf("%.0f", s.Max()), fmt.Sprint(fails))
	}
	fmt.Fprintln(w, t)
	fmt.Fprintln(w, "finding: the synced state is absorbing, so staleness costs a constant factor")
	fmt.Fprintln(w, "rather than stalling outright — the proof-level independence loss (Lemma 8)")
	fmt.Fprintln(w, "does not translate to divergence at n=3f+1 under this adversary class.")
}

// Resilience is E7: convergence across f, including beyond the n/3
// bound, under the strongest stacked attack (clock splitting + grade
// splitting + coin-recovery corruption). Within the bound the
// Berlekamp–Welch layer absorbs the corruption exactly; at f = 4 > n/3
// reconstruction collapses and the coin (hence the clock) with it.
func Resilience(w io.Writer, p Params) {
	p = p.orDefault(8, 700, 16)
	fmt.Fprintln(w, "E7 — resiliency boundary (n=10, k=16, FM coin, splitter+gradesplitter+recovercorruptor)")
	t := stats.NewTable("f", "within n/3?", "converged", "mean")
	for f := 0; f <= 4; f++ {
		conv := 0
		var s stats.Sample
		for seed := 0; seed < p.Runs; seed++ {
			var eng *sim.Engine
			kitchenSink := func(ctx *adversary.Context) adversary.Adversary {
				return adversary.Chain{Advs: []adversary.Adversary{
					&adversary.OracleSplitter{Ctx: ctx, BitOracle: func() byte {
						return eng.Node(0).(*core.ClockSync).RandBit()
					}},
					&adversary.GradeSplitter{Ctx: ctx},
					&adversary.RecoverCorruptor{Ctx: ctx},
				}}
			}
			cfg := sim.Config{
				N: 10, F: f, Seed: int64(seed) + 3,
				NewAdversary: kitchenSink, ScrambleStart: true,
			}
			eng = sim.New(cfg, core.NewClockSyncProtocol(16, coin.FMFactory{}))
			e := eng
			res := sim.MeasureConvergence(e, 16, p.MaxBeats, p.Hold)
			if res.Converged {
				conv++
				s.AddInt(res.ConvergedAt)
			}
		}
		within := "yes"
		if 3*f >= 10 {
			within = "NO"
		}
		t.AddRow(fmt.Sprint(f), within, fmt.Sprintf("%d/%d", conv, p.Runs), fmt.Sprintf("%.1f", s.Mean()))
	}
	fmt.Fprintln(w, t)
	fmt.Fprintln(w, "claim: f <= 3 converges (f < n/3 optimal, Theorem 4); f = 4 collapses.")
}

// MsgComplexity is E8: per-beat message and byte counts by protocol and
// n, with the full stack measured under both coin layouts — the paper's
// per-instance pipelines (the committed Δ-formula rows, pinned exactly
// in core's complexity tests) and the shared pipeline of Remark 4.1,
// which must be strictly cheaper (about 7.25n vs 14.75n messages and a
// third of the bytes).
func MsgComplexity(w io.Writer, p Params) {
	p = p.orDefault(1, 60, 0)
	fmt.Fprintln(w, "E8 — message complexity per beat (passive adversary, honest messages only)")
	t := stats.NewTable("protocol", "layout", "n", "msgs/beat/node", "bytes/beat/node")
	protos := []struct {
		name, layout string
		mk           func(n int) sim.NodeFactory
	}{
		{"ss-Byz-2-Clock (FM)", "paper", func(int) sim.NodeFactory {
			return core.NewTwoClockProtocolLayout(coin.FMFactory{}, core.LayoutPaper)
		}},
		{"ss-Byz-Clock-Sync (FM)", "paper", func(int) sim.NodeFactory {
			return core.NewClockSyncProtocolLayout(64, coin.FMFactory{}, core.LayoutPaper)
		}},
		{"ss-Byz-Clock-Sync (FM)", "shared", func(int) sim.NodeFactory {
			return core.NewClockSyncProtocolLayout(64, coin.FMFactory{}, core.LayoutShared)
		}},
		{"ss-Byz-Clock-Sync (Rabin)", "paper", func(int) sim.NodeFactory {
			return core.NewClockSyncProtocolLayout(64, coin.RabinFactory{Seed: 1}, core.LayoutPaper)
		}},
		{"DolevWelch", "-", func(int) sim.NodeFactory { return baseline.NewDolevWelchProtocol(64) }},
		{"PhaseKing", "-", func(int) sim.NodeFactory { return baseline.NewPhaseKingProtocol(64) }},
	}
	for _, pr := range protos {
		for _, n := range []int{4, 7, 10} {
			f := (n - 1) / 3
			cfg := sim.Config{N: n, F: f, Seed: 1, CountBytes: true}
			e := sim.New(cfg, pr.mk(n))
			beats := p.MaxBeats
			e.Run(beats)
			perNodeBeat := float64(beats) * float64(n-f)
			msgs := float64(e.HonestMsgs) / perNodeBeat
			bytes := float64(e.HonestBytes) / perNodeBeat
			t.AddRow(pr.name, pr.layout, fmt.Sprint(n), fmt.Sprintf("%.1f", msgs), fmt.Sprintf("%.0f", bytes))
		}
	}
	fmt.Fprintln(w, t)
	fmt.Fprintln(w, "note: FM coin dominates (O(n^2) field elements per node per beat); the clock")
	fmt.Fprintln(w, "layers add O(n) small messages — the paper's 'constant overhead' claim. The")
	fmt.Fprintln(w, "shared layout (Remark 4.1) runs one pipeline per node instead of three, cutting")
	fmt.Fprintln(w, "the coin term to a third while the harness holds behaviour equivalent.")
}

// AblationCoin is E9: the same 2-clock under common vs non-common coins.
func AblationCoin(w io.Writer, p Params) {
	p = p.orDefault(20, 20000, 8)
	fmt.Fprintln(w, "E9 / §6.1 — why a *common* coin: ss-Byz-2-Clock under different coins (n=7, f=2, silent adversary)")
	t := stats.NewTable("coin", "mean", "p95", "fails")
	for _, c := range []struct {
		name    string
		factory coin.Factory
	}{
		{"FM (common, no setup)", coin.FMFactory{}},
		{"Rabin (common, trusted setup)", coin.RabinFactory{Seed: 2}},
		{"Local (NOT common)", coin.LocalFactory{}},
	} {
		s, fails := convergenceSample(p, 7, 2, 2, silent, core.NewTwoClockProtocol(c.factory))
		t.AddRow(c.name, fmt.Sprintf("%.1f", s.Mean()), fmt.Sprintf("%.0f", s.Quantile(0.95)), fmt.Sprint(fails))
	}
	fmt.Fprintln(w, t)
	fmt.Fprintln(w, "claim: common coins give constant convergence; the local coin degrades toward")
	fmt.Fprintln(w, "Dolev-Welch-style behaviour (all honest ⊥-holders must guess alike).")
}

// PowerVsSync is E11: the paper's Section 5 argument, measured. The
// recursive 2^j-clock construction (PowerClock) accumulates a level per
// doubling and its slowest level flips every k/2 beats, so convergence
// grows with k; ss-Byz-Clock-Sync (Figure 4) replaces it with a constant-
// overhead agreement cycle and stays flat.
func PowerVsSync(w io.Writer, p Params) {
	p = p.orDefault(12, 0, 12)
	fmt.Fprintln(w, "E11 / §5 — recursive 2^j-clock vs ss-Byz-Clock-Sync (n=4, f=1, Rabin coin, silent adversary)")
	t := stats.NewTable("k", "PowerClock mean", "ClockSync mean")
	for _, k := range []uint64{4, 8, 16, 32, 64} {
		budget := 500 * int(k)
		var power, sync stats.Sample
		for seed := 0; seed < p.Runs; seed++ {
			cfg := sim.Config{N: 4, F: 1, Seed: int64(seed) + 21, NewAdversary: silent, ScrambleStart: true}
			e := sim.New(cfg, core.NewPowerClockProtocol(k, coin.RabinFactory{Seed: int64(seed)}))
			power.AddInt(beatsOr(sim.MeasureConvergence(e, k, budget, p.Hold), budget))

			e = sim.New(cfg, core.NewClockSyncProtocol(k, coin.RabinFactory{Seed: int64(seed)}))
			sync.AddInt(beatsOr(sim.MeasureConvergence(e, k, budget, p.Hold), budget))
		}
		t.AddRow(fmt.Sprint(k), fmt.Sprintf("%.1f", power.Mean()), fmt.Sprintf("%.1f", sync.Mean()))
	}
	fmt.Fprintln(w, t)
	fmt.Fprintln(w, "claim (§5): the recursive construction's convergence grows with k; Figure 4's is flat.")
}

// DWAdaptation is E12: Section 6.1's sketch — Dolev–Welch with its local
// guesses replaced by the self-stabilizing common coin — measured against
// both the original and the full clock-sync algorithm.
func DWAdaptation(w io.Writer, p Params) {
	p = p.orDefault(12, 30000, 10)
	fmt.Fprintln(w, "E12 / §6.1 — Dolev–Welch adapted to the common coin (n=10, f=3, silent adversary)")
	t := stats.NewTable("protocol", "k", "mean", "p95", "fails")
	row := func(name string, k uint64, factory sim.NodeFactory) {
		s, fails := convergenceSample(p, 10, 3, k, silent, factory)
		t.AddRow(name, fmt.Sprint(k), fmt.Sprintf("%.1f", s.Mean()),
			fmt.Sprintf("%.0f", s.Quantile(0.95)), fmt.Sprint(fails))
	}
	for _, k := range []uint64{2, 16, 256} {
		row("DolevWelch (local coin)", k, baseline.NewDolevWelchProtocol(k))
	}
	for _, k := range []uint64{2, 16, 256} {
		row("DolevWelch + ss-Byz-Coin-Flip", k, baseline.NewDolevWelchCommonProtocol(k, coin.RabinFactory{Seed: 31}))
	}
	for _, k := range []uint64{2, 16, 256} {
		row("ss-Byz-Clock-Sync", k, core.NewClockSyncProtocol(k, coin.RabinFactory{Seed: 31}))
	}
	fmt.Fprintln(w, t)
	fmt.Fprintln(w, "claims (§6.1): the adaptation is exponentially faster than the original but")
	fmt.Fprintln(w, "still k-dependent; ss-Byz-Clock-Sync alone is constant in both n and k.")
}

// SelfStab is E10: re-convergence after transient faults equals
// fresh-start convergence (Definition 2.8's convergence property).
func SelfStab(w io.Writer, p Params) {
	p = p.orDefault(20, 2500, 16)
	fmt.Fprintln(w, "E10 — self-stabilization (n=7, f=2, k=16, FM coin, splitter adversary)")
	var fresh, rescramble, phantom stats.Sample
	for seed := 0; seed < p.Runs; seed++ {
		cfg := sim.Config{
			N: 7, F: 2, Seed: int64(seed) + 13,
			NewAdversary: splitter, ScrambleStart: true,
		}
		e := sim.New(cfg, core.NewClockSyncProtocol(16, coin.FMFactory{}))
		res := sim.MeasureConvergence(e, 16, p.MaxBeats, p.Hold)
		fresh.AddInt(beatsOr(res, p.MaxBeats))

		e.ScrambleHonest()
		res = sim.MeasureConvergence(e, 16, p.MaxBeats, p.Hold)
		rescramble.AddInt(beatsOr(res, p.MaxBeats))

		e.InjectPhantoms([]proto.Message{
			proto.Envelope{Child: 2, Inner: core.FullClockMsg{V: 7}},
			proto.Envelope{Child: 2, Inner: core.BitMsg{B: 1}},
			proto.Envelope{Child: 2, Inner: core.ProposeMsg{V: 3}},
		})
		res = sim.MeasureConvergence(e, 16, p.MaxBeats, p.Hold)
		phantom.AddInt(beatsOr(res, p.MaxBeats))
	}
	t := stats.NewTable("scenario", "mean", "p95", "max")
	for _, row := range []struct {
		name string
		s    *stats.Sample
	}{
		{"fresh scrambled start", &fresh},
		{"memory scramble mid-run", &rescramble},
		{"phantom message burst", &phantom},
	} {
		t.AddRow(row.name, fmt.Sprintf("%.1f", row.s.Mean()),
			fmt.Sprintf("%.0f", row.s.Quantile(0.95)), fmt.Sprintf("%.0f", row.s.Max()))
	}
	fmt.Fprintln(w, t)
	fmt.Fprintln(w, "claim: all three distributions match — convergence from *any* state (Definition 3.2).")
}

// SweepGrid maps an E-series experiment name to the equivalent sweep
// grid: the sweep-backed write path. cmd/sweep plans and executes the
// grid across shards/processes; cmd/repro then reads the completed store
// with ReportStore instead of re-running in process. Zero Params fields
// select each experiment's committed defaults; the seed derivation
// (7*i + 1) matches convergenceSample, so a 1-seed sweep cell replays
// the in-process experiment's first run exactly.
func SweepGrid(name string, p Params) (sweep.Grid, error) {
	switch name {
	case "twoclock": // E3 / Figure 2
		p = p.orDefault(30, 2000, 8)
		return sweep.Grid{
			Protocol: "twoclock", Coin: "fm",
			Ns:          []int{4, 7, 10, 13},
			Adversaries: []string{"splitter"},
			Layouts:     []string{"shared"},
			Seeds:       p.Runs, MaxBeats: p.MaxBeats, Hold: p.Hold,
		}, nil
	case "fourclock": // E4 / Figure 3
		p = p.orDefault(30, 3000, 16)
		return sweep.Grid{
			Protocol: "fourclock", Coin: "fm",
			Ns:          []int{4, 7, 10},
			Adversaries: []string{"silent"},
			Layouts:     []string{"shared"},
			Seeds:       p.Runs, MaxBeats: p.MaxBeats, Hold: p.Hold,
		}, nil
	case "clocksync": // E1 row 1, widened across adversaries and layouts
		p = p.orDefault(10, 6000, 12)
		return sweep.Grid{
			Protocol: "clocksync", Coin: "fm", K: 64,
			Ns:          []int{4, 7, 10, 13, 16},
			Adversaries: []string{"silent", "splitter"},
			Layouts:     []string{"shared", "paper"},
			Seeds:       p.Runs, MaxBeats: p.MaxBeats, Hold: p.Hold,
		}, nil
	case "clocksync32": // the ROADMAP n=32 workload the in-process path cannot hold
		p = p.orDefault(4, 400, 12)
		return sweep.Grid{
			Protocol: "clocksync", Coin: "fm", K: 64,
			Ns:          []int{32},
			Adversaries: []string{"silent", "splitter"},
			Layouts:     []string{"shared"},
			Seeds:       p.Runs, MaxBeats: p.MaxBeats, Hold: p.Hold,
		}, nil
	case "resilience": // E7 across n, oracle row included (bitoraclestacked)
		p = p.orDefault(8, 700, 16)
		return sweep.Grid{
			Protocol: "clocksync", Coin: "fm", K: 16,
			Ns:          []int{7, 10, 13},
			Adversaries: []string{"stacked", "bitoraclestacked", "gradesplitter", "recovercorruptor"},
			Layouts:     []string{"shared"},
			Seeds:       p.Runs, MaxBeats: p.MaxBeats, Hold: p.Hold,
		}, nil
	case "remark31": // E6's broken stale-rand variant under the phase-3
		// oracle splitter; compare against the published algorithm's rows
		// from the "clocksync" grid (the fresh-rand side) or a clocksync
		// grid widened with "bitoraclephase3". Both adversaries are fully
		// serializable since the bit-oracle reads the coin from the
		// adversary's own honest node copy.
		p = p.orDefault(30, 4000, 16)
		return sweep.Grid{
			Protocol: "clocksyncstale", Coin: "rabin", K: 16,
			Ns:          []int{7},
			Adversaries: []string{"bitoraclephase3", "splitter"},
			Layouts:     []string{"shared"},
			Seeds:       p.Runs, MaxBeats: p.MaxBeats, Hold: p.Hold,
		}, nil
	case "netloss": // E13: convergence vs transport drop rate. The paper
		// assumes a reliable synchronous network; this grid measures what
		// breaks when that assumption is broken at the transport — seeded
		// message loss at escalating rates, plus compound loss+reorder —
		// across cluster sizes. Measured shape: at small n the protocol
		// degrades gracefully (convergence slows, occasional closure
		// violations, self-stabilization re-enters the synced state), but
		// the per-beat probability that every needed message survives
		// decays like (1-p)^O(n), so larger clusters hit a loss cliff —
		// n=8 stops converging within the budget around 30% loss. The
		// networked runtime's retransmission (noderuntime Real mode) is
		// what buys the loss tolerance back; this grid is the engine-side
		// baseline it is measured against.
		p = p.orDefault(10, 4000, 12)
		return sweep.Grid{
			Protocol: "clocksync", Coin: "fm", K: 16,
			Ns:          []int{4, 8, 16},
			Adversaries: []string{"passive", "splitter"},
			Layouts:     []string{"shared"},
			Faults:      []string{"none", "loss10", "loss20", "loss30", "loss30+reorder"},
			Seeds:       p.Runs, MaxBeats: p.MaxBeats, Hold: p.Hold,
		}, nil
	case "multitenant": // the "millions of users" workload: every unit
		// multiplexes 100 tenant instances lockstep on one internal/multi
		// engine, so one grid cell measures a hundred independent seeded
		// runs' aggregate — all-converged, slowest tenant, traffic per
		// node-beat — while exercising the shared arenas and stacked
		// kernel passes at service scale. Per-tenant results are
		// byte-identical to standalone runs (the multi differential
		// harness), so this grid's distribution claims compose with the
		// single-instance ones.
		p = p.orDefault(3, 700, 12)
		return sweep.Grid{
			Protocol: "clocksync", Coin: "fm", K: 16,
			Ns:          []int{4, 7},
			Adversaries: []string{"passive", "splitter", "replayer"},
			Layouts:     []string{"shared"},
			Tenants:     100,
			Seeds:       p.Runs, MaxBeats: p.MaxBeats, Hold: p.Hold,
		}, nil
	case "nettenants": // networked multi-tenancy: every unit is a
		// Lockstep noderuntime cluster over real loopback sockets — UDP
		// and TCP substrates as a grid dimension — multiplexing 25 tenant
		// instances behind 4 endpoints with tenant-batched frames, under
		// escalating transport-fault schedules. Lockstep networked runs
		// replay the engine byte-identically per tenant (the multi
		// differential harness), so this grid's convergence rows should
		// match the engine's at the same seeds; what it adds is the proof
		// that the numbers survive real sockets, real frame encode/decode
		// and sender-side fault injection, at O(links) frames per beat
		// regardless of tenant count. The beat budget is generous because
		// the aggregate reports the slowest of 25 tenants: under splitter
		// + loss15+dup10 the convergence tail reaches ~600 beats.
		p = p.orDefault(2, 900, 8)
		return sweep.Grid{
			Protocol: "clocksync", Coin: "fm", K: 16,
			Ns:          []int{4},
			Adversaries: []string{"passive", "splitter"},
			Layouts:     []string{"shared"},
			Faults:      []string{"none", "loss15+dup10", "partition+reorder"},
			Nets:        []string{"udp", "tcp"},
			Tenants:     25,
			Seeds:       p.Runs, MaxBeats: p.MaxBeats, Hold: p.Hold,
		}, nil
	default:
		return sweep.Grid{}, fmt.Errorf("experiments: no sweep grid named %q (want twoclock, fourclock, clocksync, clocksync32, resilience, remark31, netloss, multitenant or nettenants)", name)
	}
}

// SweepGridNames lists the experiment names SweepGrid accepts.
func SweepGridNames() []string {
	return []string{"twoclock", "fourclock", "clocksync", "clocksync32", "resilience", "remark31", "netloss", "multitenant", "nettenants"}
}

// ReportStore renders the aggregate tables of a completed (merged) sweep
// store: the sweep-backed read path of the E-series convergence
// experiments. Aggregation streams the columns (stats.Stream /
// stats.Histogram), so the report's memory is independent of seed count.
func ReportStore(w io.Writer, dir string) error {
	st, err := sweep.Open(dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "E-sweep — aggregates from store %s\n", dir)
	if err := sweep.Render(w, st); err != nil {
		return err
	}
	// Only state claims this grid can exhibit: the flat-in-n claim needs
	// more than one n, and the Remark 4.1 layout comparison needs both
	// layouts on the full clock-sync stack (the 2-clock runs a single
	// coin pipeline either way, so the layouts cost the same there).
	g := st.Grid()
	fmt.Fprintln(w, "claims: closure 0 once converged (Definition 3.2).")
	if len(g.Ns) > 1 {
		fmt.Fprintln(w, "claims: mean flat in n per adversary (expected constant convergence).")
	}
	if g.Protocol == "clocksync" && len(g.Layouts) > 1 {
		fmt.Fprintln(w, "claims: shared layout strictly cheaper in msgs and bytes than paper (Remark 4.1).")
	}
	return nil
}

func beatsOr(res sim.ConvergenceResult, cap int) int {
	if !res.Converged {
		return cap
	}
	return res.ConvergedAt
}

func pct(a, b int) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(a)/float64(b))
}
