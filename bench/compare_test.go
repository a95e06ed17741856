package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runs builds n results of one workload whose beats_per_s and
// beat_ms_p90 take the given values (other end-to-end metrics held at 1).
func runs(workload string, failed int, rate, p90 []float64) []result {
	var out []result
	for i := range rate {
		m := map[string]metric{}
		for _, d := range endToEnd {
			m[d.Name] = metric{Value: 1, Unit: d.Unit}
		}
		m["beats_per_s"] = metric{Value: rate[i], Unit: "1/s"}
		m["beat_ms_p90"] = metric{Value: p90[i], Unit: "ms"}
		m["sim.msgs_per_beat"] = metric{Value: 12, Unit: "count"}
		out = append(out, result{Workload: workload, Attempted: 100, Failed: failed, Correct: failed == 0, Metrics: m})
	}
	return out
}

func verdictOf(t *testing.T, table, workload, metric string) string {
	t.Helper()
	for _, line := range strings.Split(table, "\n") {
		f := strings.Fields(line)
		if len(f) >= 3 && f[0] == workload && f[1] == metric {
			return f[len(f)-1]
		}
	}
	t.Fatalf("no row for %s %s in:\n%s", workload, metric, table)
	return ""
}

func TestCompareVerdicts(t *testing.T) {
	bound := endToEnd[1].Bound // beats_per_s
	if endToEnd[1].Name != "beats_per_s" || endToEnd[1].Better != "higher" {
		t.Fatalf("endToEnd[1] = %+v, want beats_per_s/higher", endToEnd[1])
	}
	steady := []float64{100, 100.5, 99.5, 100.2, 99.8}
	scale := func(xs []float64, k float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * k
		}
		return out
	}
	noisy := []float64{60, 140, 100, 75, 125}

	for _, tc := range []struct {
		name         string
		a, b         []result
		rate, p90    string
		wantExitCode int
	}{
		{"identical", runs("engine-n16", 0, steady, steady), runs("engine-n16", 0, steady, steady), verdictOK, verdictOK, 0},
		{"throughput down beyond the bound: higher-is-better handled",
			runs("engine-n16", 0, steady, steady), runs("engine-n16", 0, scale(steady, 1-bound-0.05), steady), verdictWorse, verdictOK, 1},
		{"throughput up is never worse",
			runs("engine-n16", 0, steady, steady), runs("engine-n16", 0, scale(steady, 2), steady), verdictOK, verdictOK, 0},
		{"latency up beyond the bound",
			runs("engine-n16", 0, steady, steady), runs("engine-n16", 0, steady, scale(steady, 1+bound+0.05)), verdictOK, verdictWorse, 1},
		{"spread wider than the bound is unresolved, not ok",
			runs("engine-n16", 0, noisy, steady), runs("engine-n16", 0, noisy, steady), verdictUnresolved, verdictOK, 0},
		{"one run a side: medians only",
			runs("engine-n16", 0, steady[:1], steady[:1]), runs("engine-n16", 0, steady[:1], steady[:1]), verdictOK, verdictOK, 0},
		{"failed share rose",
			runs("engine-n16", 0, steady, steady), runs("engine-n16", 3, steady, steady), verdictOK, verdictOK, 1},
	} {
		var buf bytes.Buffer
		code := compareResults(&buf, tc.a, tc.b)
		if code != tc.wantExitCode {
			t.Errorf("%s: exit code %d, want %d\n%s", tc.name, code, tc.wantExitCode, buf.String())
		}
		if got := verdictOf(t, buf.String(), "engine-n16", "beats_per_s"); got != tc.rate {
			t.Errorf("%s: beats_per_s verdict %q, want %q", tc.name, got, tc.rate)
		}
		if got := verdictOf(t, buf.String(), "engine-n16", "beat_ms_p90"); got != tc.p90 {
			t.Errorf("%s: beat_ms_p90 verdict %q, want %q", tc.name, got, tc.p90)
		}
		if !strings.Contains(buf.String(), "sim.msgs_per_beat") {
			t.Errorf("%s: per-layer metric not listed", tc.name)
		}
	}
}

func TestCompareFilesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	vals := []float64{10, 10.1, 9.9}
	for _, r := range runs("udp-n4", 0, vals, vals) {
		if err := r.appendTo(a); err != nil {
			t.Fatal(err)
		}
		if err := r.appendTo(b); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if code := compareFiles(&buf, a, b); code != 0 {
		t.Fatalf("identical files: exit code %d\n%s", code, buf.String())
	}
	if got := verdictOf(t, buf.String(), "udp-n4", "beats_per_s"); got != verdictOK {
		t.Fatalf("verdict %q, want ok", got)
	}
	if code := compareFiles(&buf, a, filepath.Join(dir, "missing.json")); code != 2 {
		t.Fatalf("missing file: exit code %d, want 2", code)
	}
	if err := os.WriteFile(b, []byte("{not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := compareFiles(&buf, a, b); code != 2 {
		t.Fatalf("malformed file: exit code %d, want 2", code)
	}
}
