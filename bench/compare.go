package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Verdicts of -compare, per (workload, end-to-end metric).
const (
	verdictOK         = "ok"         // B's median within the bound of A's
	verdictWorse      = "worse"      // B's median worse than A's by more than the bound
	verdictUnresolved = "unresolved" // not worse, but a side's run-to-run spread exceeds the bound
)

// readResults parses a result file: one JSON object per line, as -out
// writes them.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Workload == "" || r.Metrics == nil {
			return nil, fmt.Errorf("%s:%d: not a bench result (no workload or metrics)", path, line)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// side is one result file's runs of one workload.
type side struct {
	values            map[string][]float64 // metric -> one value per run
	attempted, failed int
}

func (s *side) failedShare() float64 {
	if s == nil || s.attempted == 0 {
		return 0
	}
	return float64(s.failed) / float64(s.attempted)
}

func groupByWorkload(rs []result) map[string]*side {
	out := map[string]*side{}
	for _, r := range rs {
		s := out[r.Workload]
		if s == nil {
			s = &side{values: map[string][]float64{}}
			out[r.Workload] = s
		}
		// A traced run's operations count too, but each file is expected
		// to hold the same mix of runs, so shares stay comparable.
		s.attempted += r.Attempted
		s.failed += r.Failed
		for name, m := range r.Metrics {
			s.values[name] = append(s.values[name], m.Value)
		}
	}
	return out
}

// row is one line of the comparison table.
type row struct {
	a, b             float64 // medians
	change           float64 // signed share of a; positive = worse
	spreadA, spreadB float64 // NaN when a side has fewer than two runs
	verdict          string
}

// judge compares one metric's runs on the two sides under def's bound.
func judge(def metricDef, as, bs []float64) row {
	r := row{a: median(as), b: median(bs), spreadA: math.NaN(), spreadB: math.NaN()}
	if s, ok := spread(as); ok {
		r.spreadA = s
	}
	if s, ok := spread(bs); ok {
		r.spreadB = s
	}
	if r.a != 0 {
		r.change = (r.b - r.a) / math.Abs(r.a)
		if def.Better == "higher" {
			r.change = -r.change
		}
	}
	switch {
	case r.change > def.Bound:
		r.verdict = verdictWorse
	case r.spreadA > def.Bound || r.spreadB > def.Bound: // false for NaN
		r.verdict = verdictUnresolved
	default:
		r.verdict = verdictOK
	}
	return r
}

// compareResults applies the end-to-end bounds to two sets of runs and
// writes one row per (workload, metric). It returns 1 when any metric
// is worse or any workload's failed share rose, else 0.
func compareResults(w io.Writer, a, b []result) int {
	ga, gb := groupByWorkload(a), groupByWorkload(b)
	code := 0
	fmt.Fprintf(w, "%-16s %-18s %14s %14s %9s %8s %8s %6s  %s\n",
		"workload", "metric", "A median", "B median", "change", "spreadA", "spreadB", "bound", "verdict")
	for _, wl := range workloads {
		sa, sb := ga[wl.name], gb[wl.name]
		if sa == nil || sb == nil {
			continue
		}
		for _, def := range endToEnd {
			as, bs := sa.values[def.Name], sb.values[def.Name]
			if len(as) == 0 || len(bs) == 0 {
				continue
			}
			r := judge(def, as, bs)
			if r.verdict == verdictWorse {
				code = 1
			}
			fmt.Fprintf(w, "%-16s %-18s %14.6g %14.6g %+8.2f%% %8s %8s %5.0f%%  %s\n",
				wl.name, def.Name, r.a, r.b, 100*r.change, pct(r.spreadA), pct(r.spreadB), 100*def.Bound, r.verdict)
		}
		if fa, fb := sa.failedShare(), sb.failedShare(); fb > fa {
			code = 1
			fmt.Fprintf(w, "%-16s failed share rose: %.4f -> %.4f  %s\n", wl.name, fa, fb, verdictWorse)
		}
		// Per-layer metrics have no bound: listed for reading, not judged.
		var names []string
		for name := range sa.values {
			if _, ok := sb.values[name]; ok && !isEndToEnd(name) {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "%-16s %-40s %14.6g %14.6g  (per-layer, not judged)\n",
				wl.name, name, median(sa.values[name]), median(sb.values[name]))
		}
	}
	return code
}

// pct formats a share as a percentage; NaN (a spread over fewer than
// two runs) prints as n/a.
func pct(x float64) string {
	if math.IsNaN(x) {
		return "n/a"
	}
	return fmt.Sprintf("%.2f%%", 100*x)
}

func isEndToEnd(name string) bool {
	for _, d := range endToEnd {
		if d.Name == name {
			return true
		}
	}
	return false
}

func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	return compareResults(w, a, b)
}
