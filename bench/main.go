// Command bench is the repository's benchmark: four seeded workloads
// covering every executor (engine, multi-tenant engine, networked
// runtime with and without loss), each run untraced for the end-to-end
// metrics or traced for the per-layer ones. BENCHMARK.json at the
// repository root describes it; README.md in this directory explains
// the metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "all", "workload to run: all, or one of the names in BENCHMARK.json")
		seed    = fs.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds = fs.Int("seconds", 20, "how long one run measures")
		trace   = fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		outPath = fs.String("out", "", "append each run's result as one JSON line to this file (input for -compare)")
		short   = fs.Bool("short", false, "tiny fixed-work run of the in-process workloads (smoke test only)")
		compare = fs.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out FILE] [-short]")
		return 2
	}
	var todo []workload
	if *name == "all" {
		todo = workloads
		if *short {
			todo = workloads[:2]
		}
	} else if w, ok := findWorkload(*name); ok {
		todo = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	code := 0
	for _, w := range todo {
		res, err := runWorkload(w, *seed, budget{seconds: float64(*seconds), short: *short}, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		res.print(os.Stdout)
		if *outPath != "" {
			if err := res.appendTo(*outPath); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// result is one run of one workload: what the last output line and
// each line of an -out file hold.
type result struct {
	Workload  string            `json:"workload,omitempty"`
	Seed      int64             `json:"seed,omitempty"`
	Trace     int               `json:"trace,omitempty"`
	TraceHash string            `json:"trace_hash,omitempty"`
	Samples   int               `json:"samples,omitempty"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes     []string
	tracePath string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// traceDir is where traced runs leave their spans, relative to the
// working directory (the repository root under the documented command).
const traceDir = "bench/out"

// Shares of the time budget in a traced run: an untraced reference pass
// (for proc.trace_overhead_ratio), the traced pass, and what is left
// for the workload's own timed rungs.
const (
	refShare    = 0.25
	tracedShare = 0.50
	rungShare   = 0.10 // each of at most two timed rungs
)

// defaultSetups is how many times an untraced run sets up; setup_s is
// their median.
const defaultSetups = 5

func runWorkload(w workload, seed int64, b budget, traced bool) (*result, error) {
	res := &result{Workload: w.name, Seed: seed, Metrics: map[string]metric{}}
	var out *outcome
	var err error
	var defs []metricDef
	if !traced {
		b.setups = defaultSetups
		if out, err = w.run(seed, b, nil); err != nil {
			return nil, err
		}
		defs = endToEnd
	} else {
		res.Trace = 1
		ref := b
		ref.seconds, ref.setups = b.seconds*refShare, 1
		refOut, err := w.run(seed, ref, nil)
		if err != nil {
			return nil, fmt.Errorf("reference pass: %w", err)
		}
		tb := b
		tb.seconds, tb.setups = b.seconds*tracedShare, 1
		rec := newRecorder()
		if out, err = w.run(seed, tb, rec); err != nil {
			return nil, err
		}
		out.metrics["proc.trace_overhead_ratio"] = out.metrics["beats_per_s"] / refOut.metrics["beats_per_s"]
		out.notef("untraced reference pass: %.1f beats/s over %d samples; traced: %.1f beats/s",
			refOut.metrics["beats_per_s"], refOut.samples, out.metrics["beats_per_s"])
		rb := b
		rb.seconds = b.seconds * rungShare
		if err := runRungs(w.name, seed, rb, out, rec); err != nil {
			return nil, err
		}
		if res.tracePath, err = rec.write(traceDir, w.name); err != nil {
			return nil, err
		}
		out.notef("self time by span name (stored spans): %s", selfShares(rec.selfByName()))
		if rec.dropped > 0 {
			out.notef("span log full: %d spans stored, %d more counted in the totals only", len(rec.spans), rec.dropped)
		}
		defs = perLayer
	}
	res.Correct = out.failed == 0
	res.Attempted, res.Failed = out.attempted, out.failed
	res.Samples = out.samples
	res.notes = out.notes
	if out.traceHash != 0 {
		res.TraceHash = fmt.Sprintf("%016x", out.traceHash)
	}
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok && d.Bound > 0 {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		// A per-layer metric a workload does not report reads 0: the
		// workload does not exercise that layer (engine-n16 sends no
		// frames) or the rung belongs to another workload.
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return res, nil
}

// selfShares formats self time per span name as shares of the total,
// largest first.
func selfShares(self map[string]int64) string {
	names := make([]string, 0, len(self))
	var total int64
	for n, ns := range self {
		names = append(names, n)
		total += ns
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s %.1f%%  ", n, 100*float64(self[n])/float64(max(total, 1)))
	}
	return strings.TrimSpace(b.String())
}

// print writes the human-readable report and, last, the one-line JSON
// object the benchmark contract asks for.
func (r *result) print(w io.Writer) {
	kind := "untraced: end-to-end metrics"
	if r.Trace == 1 {
		kind = "traced: per-layer metrics (spans recorded by shims around the program's public calls)"
	}
	fmt.Fprintf(w, "# bench workload=%s seed=%d %s\n", r.Workload, r.Seed, kind)
	fmt.Fprintf(w, "# GOMAXPROCS=%d; closed loop; no message delay injected: the UDP workloads cross the host loopback, so their latency is processor time plus loopback syscalls\n",
		runtime.GOMAXPROCS(0))
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	if r.TraceHash != "" {
		fmt.Fprintf(w, "trace_hash %s\n", r.TraceHash)
	}
	if r.tracePath != "" {
		fmt.Fprintf(w, "spans %s\n", r.tracePath)
	}
	fmt.Fprintf(w, "operations attempted=%d failed=%d beat_samples=%d\n", r.Attempted, r.Failed, r.Samples)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-40s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Fprintf(w, "%s\n", line)
}

// appendTo appends the result as one JSON line to path.
func (r *result) appendTo(path string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("result file: %w", err)
	}
	line, err := json.Marshal(r)
	if err != nil {
		f.Close()
		return fmt.Errorf("result file: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("result file: %w", err)
	}
	return f.Close()
}
