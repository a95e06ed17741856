// Command repro regenerates every experiment in the reproduction
// (internal/experiments): the paper's Table 1 and the empirical
// validation of Figures 1-4, plus the ablations. Outputs are plain-text
// tables; the recorded copies live in EXPERIMENTS.md.
//
// Usage:
//
//	repro [-runs N] [-quick] [-store DIR] <experiment|all>
//
// Experiments: table1 coin twoclock fourclock clocksync ablation-rand
// resilience msgcomplexity ablation-coin selfstab sweep all
//
// The "sweep" experiment does not re-run anything: it reads a completed
// (merged) columnar store produced by cmd/sweep from -store DIR and
// prints its aggregates — the sweep-backed path for grids too large for
// the in-process loop (large n, many seeds, adversary × layout grids).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ssbyzclock/internal/experiments"
)

func main() {
	os.Exit(run())
}

func run() int {
	runs := flag.Int("runs", 0, "seeds per configuration (0 = experiment default)")
	quick := flag.Bool("quick", false, "smaller budgets for a fast smoke pass")
	store := flag.String("store", "", "completed cmd/sweep store directory (for the sweep experiment)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: repro [-runs N] [-quick] <experiment|all>\nexperiments: %s\n",
			strings.Join(names(), " "))
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		return 2
	}
	p := experiments.Params{Runs: *runs}
	if *quick {
		if p.Runs == 0 {
			p.Runs = 3
		}
		p.MaxBeats = 4000
		p.Hold = 8
	}
	target := flag.Arg(0)
	if target == "sweep" {
		if *store == "" {
			fmt.Fprintln(os.Stderr, "the sweep experiment reads a cmd/sweep store: repro -store DIR sweep")
			return 2
		}
		if err := experiments.ReportStore(os.Stdout, *store); err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			return 1
		}
		return 0
	}
	ran := false
	for _, e := range registry() {
		if target == "all" || target == e.name {
			e.fn(p)
			fmt.Println()
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", target)
		flag.Usage()
		return 2
	}
	return 0
}

type entry struct {
	name string
	fn   func(experiments.Params)
}

func registry() []entry {
	w := os.Stdout
	return []entry{
		{"table1", func(p experiments.Params) { experiments.Table1(w, p) }},
		{"coin", func(p experiments.Params) { experiments.CoinQuality(w, p) }},
		{"twoclock", func(p experiments.Params) { experiments.TwoClock(w, p) }},
		{"fourclock", func(p experiments.Params) { experiments.FourClock(w, p) }},
		{"clocksync", func(p experiments.Params) { experiments.ClockSync(w, p) }},
		{"ablation-rand", func(p experiments.Params) { experiments.AblationRand(w, p) }},
		{"resilience", func(p experiments.Params) { experiments.Resilience(w, p) }},
		{"msgcomplexity", func(p experiments.Params) { experiments.MsgComplexity(w, p) }},
		{"ablation-coin", func(p experiments.Params) { experiments.AblationCoin(w, p) }},
		{"powerclock", func(p experiments.Params) { experiments.PowerVsSync(w, p) }},
		{"dw-adapted", func(p experiments.Params) { experiments.DWAdaptation(w, p) }},
		{"selfstab", func(p experiments.Params) { experiments.SelfStab(w, p) }},
	}
}

func names() []string {
	out := []string{"all"}
	for _, e := range registry() {
		out = append(out, e.name)
	}
	return append(out, "sweep")
}
