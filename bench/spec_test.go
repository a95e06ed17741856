package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkSpec is BENCHMARK.json's schema: exactly these keys.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json at the repository root and the tables in this package
// describe the same benchmark; the binary reports by the tables, the
// driver reads the file.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	f, err := os.Open("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var spec benchmarkSpec
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside the contract's alphabet or length", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if len(spec.Command) != 2 || spec.Command[0] != "bash" || spec.Command[1] != "bench/run.sh" {
		t.Errorf("command = %v", spec.Command)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the package", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		checkName("workload", w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: file has %q (%q), package has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}

	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the package", len(spec.EndToEnd), len(endToEnd))
	}
	haveSetup := false
	for i, m := range spec.EndToEnd {
		checkName("metric", m.Name)
		d := endToEnd[i]
		if m.Bound == nil || m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || *m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: file has %+v, package has %+v", i, m, d)
			continue
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: unit %q better %q bound %g", m.Name, m.Unit, m.Better, *m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			haveSetup = true
		}
	}
	if !haveSetup {
		t.Error("no setup_s metric in s, lower is better")
	}

	if len(spec.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the package (at most 128)", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		checkName("metric", m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: file has %+v, package has %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if d.Bound != 0 || d.Moves == "" {
			t.Errorf("per-layer metric %s: has a bound or no interaction note", d.Name)
		}
	}
}

// Every metric a run reports is in the tables, and every end-to-end
// metric is measured by the in-process workloads' untraced pass (the
// networked ones fill the same names; no sockets here).
func TestRunsReportTheTablesMetrics(t *testing.T) {
	known := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		known[d.Name] = true
	}
	for _, w := range workloads[:2] {
		res, err := runWorkload(w, 2, budget{short: true}, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s untraced: %d metrics, want the %d end-to-end ones", w.name, len(res.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			if m, ok := res.Metrics[d.Name]; !ok || m.Value <= 0 || m.Unit != d.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v", w.name, d.Name, m)
			}
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: failed %d of %d: %v", w.name, res.Failed, res.Attempted, res.notes)
		}
	}
	out, err := runEngine(2, budget{short: true, setups: 1}, newRecorder())
	if err != nil {
		t.Fatal(err)
	}
	if err := runRungs("engine-n16", 2, budget{short: true}, out, nil); err != nil {
		t.Fatal(err)
	}
	for name := range out.metrics {
		if !known[name] {
			t.Errorf("engine-n16 traced reports %q, which no table lists", name)
		}
	}
	for _, name := range []string{"field.eval_ns_per_term.n16", "gvss.session_us.n4", "wire.bytes_per_msg", "sscoin.beat_us.n16", "pool.lease_recycle_ns", "sim.compose_ms_per_beat"} {
		if out.metrics[name] <= 0 {
			t.Errorf("engine-n16 traced: %s = %g, want > 0", name, out.metrics[name])
		}
	}
	if out.metrics["net.frames_per_beat"] != 0 {
		t.Error("engine-n16 sent frames")
	}
}

func TestCommandLine(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-workload", "nope"}, 2},
		{[]string{"-trace", "2"}, 2},
		{[]string{"-seconds", "0"}, 2},
		{[]string{"-compare", "only-one.json"}, 2},
		{[]string{"-workload", "udp-n4", "-short"}, 1},
	} {
		if got := run(tc.args); got != tc.want {
			t.Errorf("bench %v: exit code %d, want %d", tc.args, got, tc.want)
		}
	}
}
