package sweep

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testGrid is the suite's tiny grid: cheap enough to execute dozens of
// times, rich enough to cover both layouts and two adversaries.
func testGrid() Grid {
	return Grid{
		Protocol: "twoclock", Coin: "fm",
		Ns:          []int{4},
		Adversaries: []string{"silent", "splitter"},
		Layouts:     []string{"shared", "paper"},
		Seeds:       3,
		MaxBeats:    400,
		Hold:        6,
	}
}

// executeAll plans the grid into dir and runs it to completion across the
// given shard count, merging at the end.
func executeAll(t *testing.T, dir string, g Grid, shards int) *Store {
	t.Helper()
	st, err := Create(dir, g)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < shards; s++ {
		if _, err := ExecuteShard(context.Background(), st, s, shards, Runner{Workers: 1}, 0, nil); err != nil {
			t.Fatalf("shard %d/%d: %v", s, shards, err)
		}
	}
	if err := st.Merge(); err != nil {
		t.Fatal(err)
	}
	return st
}

// columnBytes reads every merged column file's raw bytes.
func columnBytes(t *testing.T, st *Store) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, m := range Metrics {
		b, err := os.ReadFile(filepath.Join(st.Dir(), "columns", m.Name+".col"))
		if err != nil {
			t.Fatal(err)
		}
		out[m.Name] = b
	}
	return out
}

func renderString(t *testing.T, st *Store) string {
	t.Helper()
	var b strings.Builder
	if err := Render(&b, st); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestShardCountDeterminism is the subsystem's core contract: the same
// grid executed with 1, 2 and 8 shards yields byte-identical merged
// column files and identical aggregate output.
func TestShardCountDeterminism(t *testing.T) {
	g := testGrid()
	ref := executeAll(t, filepath.Join(t.TempDir(), "ref"), g, 1)
	refCols := columnBytes(t, ref)
	refReport := renderString(t, ref)
	for _, shards := range []int{2, 8} {
		st := executeAll(t, t.TempDir(), g, shards)
		cols := columnBytes(t, st)
		for name, want := range refCols {
			if !bytes.Equal(cols[name], want) {
				t.Errorf("shards=%d: column %s differs from single-shard run", shards, name)
			}
		}
		if got := renderString(t, st); got != refReport {
			t.Errorf("shards=%d: aggregate report differs:\n%s\nwant:\n%s", shards, got, refReport)
		}
	}
}

// TestKillAndResume simulates an interrupted sweep: shard 0 of 2 stops
// after 2 units (the stand-in for a kill), then the whole sweep re-runs
// — under a DIFFERENT shard layout — and must produce the same merged
// bytes as an uninterrupted single-shard run, re-executing only the
// missing units.
func TestKillAndResume(t *testing.T) {
	g := testGrid()
	ref := executeAll(t, filepath.Join(t.TempDir(), "ref"), g, 1)
	refCols := columnBytes(t, ref)

	dir := t.TempDir()
	st, err := Create(dir, g)
	if err != nil {
		t.Fatal(err)
	}
	ran, err := ExecuteShard(context.Background(), st, 0, 2, Runner{Workers: 1}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ran != 2 {
		t.Fatalf("interrupted shard ran %d units, want 2", ran)
	}
	if err := st.Merge(); err == nil {
		t.Fatal("merge of an incomplete store must fail")
	}
	// Resume by re-planning (same grid: a no-op) and running to completion
	// with 3 shards — a different layout than the interrupted run.
	st2, err := Create(dir, g)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for s := 0; s < 3; s++ {
		ran, err := ExecuteShard(context.Background(), st2, s, 3, Runner{Workers: 1}, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		total += ran
	}
	if want := g.Units() - 2; total != want {
		t.Fatalf("resume re-ran %d units, want %d (2 were already complete)", total, want)
	}
	if err := st2.Merge(); err != nil {
		t.Fatal(err)
	}
	for name, want := range columnBytes(t, st2) {
		if !bytes.Equal(refCols[name], want) {
			t.Errorf("resumed store: column %s differs from uninterrupted run", name)
		}
	}
}

// TestContextCancelStopsGracefully interrupts a shard via context
// cancellation (the SIGINT path in cmd/sweep): the unit in flight is
// recorded, the error is the context's, and a later run resumes from
// the recorded frontier to the same merged bytes as an uninterrupted
// sweep.
func TestContextCancelStopsGracefully(t *testing.T) {
	g := testGrid()
	ref := executeAll(t, filepath.Join(t.TempDir(), "ref"), g, 1)
	refCols := columnBytes(t, ref)

	dir := t.TempDir()
	st, err := Create(dir, g)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ran, err := ExecuteShard(ctx, st, 0, 1, Runner{Workers: 1}, 0, func(Unit, Result) {
		cancel() // the "SIGINT" lands while a unit is mid-flight
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran == 0 || ran >= g.Units() {
		t.Fatalf("interrupted shard ran %d units, want partial progress", ran)
	}
	_, done, err := st.Completed()
	if err != nil {
		t.Fatal(err)
	}
	if done != ran {
		t.Fatalf("%d units recorded, %d executed: the in-flight unit was lost", done, ran)
	}
	if _, err := ExecuteShard(context.Background(), st, 0, 1, Runner{Workers: 1}, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Merge(); err != nil {
		t.Fatal(err)
	}
	for name, want := range columnBytes(t, st) {
		if !bytes.Equal(refCols[name], want) {
			t.Errorf("resumed-after-cancel store: column %s differs from reference", name)
		}
	}
}

// TestPartialTrailingRecord kills a writer mid-append by truncating its
// chunk file to a non-record boundary: the scan must treat the partial
// tail as absent, the unit must re-run, and the merged output must still
// match the reference.
func TestPartialTrailingRecord(t *testing.T) {
	g := testGrid()
	ref := executeAll(t, filepath.Join(t.TempDir(), "ref"), g, 1)
	refCols := columnBytes(t, ref)

	dir := t.TempDir()
	st, err := Create(dir, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecuteShard(context.Background(), st, 0, 1, Runner{Workers: 1}, 3, nil); err != nil {
		t.Fatal(err)
	}
	chunks, err := st.chunkFiles()
	if err != nil || len(chunks) != 1 {
		t.Fatalf("chunks = %v, err = %v", chunks, err)
	}
	fi, err := os.Stat(chunks[0])
	if err != nil {
		t.Fatal(err)
	}
	// Chop the last record off mid-word: unit 2 becomes a partial tail.
	if err := os.Truncate(chunks[0], fi.Size()-recordSize+11); err != nil {
		t.Fatal(err)
	}
	_, count, err := st.Completed()
	if err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("after truncation %d units complete, want 2", count)
	}
	if _, err := ExecuteShard(context.Background(), st, 0, 1, Runner{Workers: 1}, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Merge(); err != nil {
		t.Fatal(err)
	}
	for name, want := range columnBytes(t, st) {
		if !bytes.Equal(refCols[name], want) {
			t.Errorf("post-truncation store: column %s differs from reference", name)
		}
	}
}

// TestConflictingRecords verifies the corruption guard: two different
// results recorded for one unit must fail the scan rather than silently
// pick one.
func TestConflictingRecords(t *testing.T) {
	g := testGrid()
	dir := t.TempDir()
	st, err := Create(dir, g)
	if err != nil {
		t.Fatal(err)
	}
	w, err := st.ShardWriter(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(0, [numMetrics]uint64{1, 10, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(0, [numMetrics]uint64{1, 11, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, _, err := st.Completed(); err == nil {
		t.Fatal("conflicting records must fail the completion scan")
	}
}

// TestGridMismatchRejected verifies a store cannot be re-planned with a
// different grid.
func TestGridMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir, testGrid()); err != nil {
		t.Fatal(err)
	}
	g2 := testGrid()
	g2.Seeds++
	if _, err := Create(dir, g2); err == nil {
		t.Fatal("planning a different grid over an existing store must fail")
	}
}

// TestUnitEnumeration pins the unit index layout the store depends on:
// seed innermost, then layout, adversary, n.
func TestUnitEnumeration(t *testing.T) {
	g := testGrid()
	if got, want := g.Units(), 1*2*2*3; got != want {
		t.Fatalf("Units() = %d, want %d", got, want)
	}
	u := g.UnitAt(0)
	if u.N != 4 || u.Adversary != "silent" || u.Layout != "shared" || u.SeedIdx != 0 {
		t.Fatalf("unit 0 = %+v", u)
	}
	u = g.UnitAt(g.Seeds) // first unit of the second layout
	if u.Adversary != "silent" || u.Layout != "paper" || u.SeedIdx != 0 {
		t.Fatalf("unit %d = %+v", g.Seeds, u)
	}
	u = g.UnitAt(g.Units() - 1)
	if u.Adversary != "splitter" || u.Layout != "paper" || u.SeedIdx != g.Seeds-1 {
		t.Fatalf("last unit = %+v", u)
	}
	if f := g.UnitAt(0).F; f != 1 {
		t.Fatalf("f = %d, want 1", f)
	}
}

// TestRunnerWorkersIrrelevant verifies the Workers knob does not change
// results (the scheduler's byte-identical replay contract, surfaced at
// the sweep layer).
func TestRunnerWorkersIrrelevant(t *testing.T) {
	g := testGrid()
	u := g.UnitAt(5)
	r1, err := Runner{Workers: 1}.RunUnit(g, u)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Runner{Workers: 8}.RunUnit(g, u)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r8 {
		t.Fatalf("workers=1 result %+v != workers=8 result %+v", r1, r8)
	}
}

// TestScanRowsMmapMatchesBuffered: the mmap fast path over the merged
// columns must yield exactly the rows the buffered reader yields, and
// must kick in when the columns cross the threshold.
func TestScanRowsMmapMatchesBuffered(t *testing.T) {
	if !mmapAvailable {
		t.Skip("no mmap on this platform")
	}
	st := executeAll(t, filepath.Join(t.TempDir(), "store"), testGrid(), 1)
	type rowAt struct {
		idx int
		row [numMetrics]uint64
	}
	collect := func() []rowAt {
		var out []rowAt
		if err := st.ScanRows(func(idx int, row [numMetrics]uint64) error {
			out = append(out, rowAt{idx, row})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	defer func(old int64) { mmapThreshold = old }(mmapThreshold)
	mmapThreshold = 1 << 40 // force buffered
	buffered := collect()
	mmapThreshold = 1 // force mmap
	mapped := collect()
	if len(buffered) != st.Units() || len(mapped) != len(buffered) {
		t.Fatalf("row counts: buffered %d, mapped %d, units %d", len(buffered), len(mapped), st.Units())
	}
	for i := range buffered {
		if buffered[i] != mapped[i] {
			t.Fatalf("row %d differs: buffered %+v, mapped %+v", i, buffered[i], mapped[i])
		}
	}
}

// TestBitOracleUnitsRunnable: the serialized oracle rows (E6/E7) — the
// bit-oracle adversaries and the stale-rand protocol variant — execute
// from a bare grid, deterministically. These rows used to be impossible
// to sweep because the oracle closed over a live engine.
func TestBitOracleUnitsRunnable(t *testing.T) {
	g := Grid{
		Protocol: "clocksyncstale", Coin: "rabin", K: 8,
		Ns:          []int{4},
		Adversaries: []string{"bitoraclephase3", "bitoraclestacked", "bitoraclesplitter"},
		Layouts:     []string{"shared"},
		Seeds:       1,
		MaxBeats:    300,
		Hold:        6,
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < g.Units(); idx++ {
		u := g.UnitAt(idx)
		r1, err := Runner{Workers: 1}.RunUnit(g, u)
		if err != nil {
			t.Fatalf("unit %d (%s): %v", idx, u.Adversary, err)
		}
		r2, err := Runner{Workers: 1}.RunUnit(g, u)
		if err != nil {
			t.Fatal(err)
		}
		if r1 != r2 {
			t.Fatalf("unit %d (%s) not deterministic: %+v vs %+v", idx, u.Adversary, r1, r2)
		}
	}
}

// TestFaultDimension covers the grid's transport-fault coordinate: the
// empty Faults slice is the single ideal schedule and keeps the legacy
// unit enumeration (and grid Hash) intact; a populated slice multiplies
// the unit count with fault innermost-but-for-seed; faulted units run
// deterministically and differently from their ideal twins.
func TestFaultDimension(t *testing.T) {
	plain := testGrid()
	legacy := plain.Hash()
	if got := plain.UnitAt(0).Fault; got != "none" {
		t.Fatalf("ideal grid unit fault = %q, want none", got)
	}
	if plain.Hash() != legacy {
		t.Fatal("reading units must not change the grid hash")
	}

	g := testGrid()
	g.Faults = []string{"none", "loss25+reorder"}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := g.Units(), plain.Units()*2; got != want {
		t.Fatalf("Units() = %d, want %d", got, want)
	}
	if g.Hash() == legacy {
		t.Fatal("fault dimension must change the grid hash")
	}
	// Fault sits between layout and seed: unit Seeds is the first unit of
	// the second fault, same cell otherwise.
	u := g.UnitAt(g.Seeds)
	if u.Fault != "loss25+reorder" || u.Layout != "shared" || u.Adversary != "silent" || u.SeedIdx != 0 {
		t.Fatalf("unit %d = %+v", g.Seeds, u)
	}

	ideal, err := Runner{Workers: 1}.RunUnit(g, g.UnitAt(0))
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := Runner{Workers: 1}.RunUnit(g, u)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Runner{Workers: 1}.RunUnit(g, u)
	if err != nil {
		t.Fatal(err)
	}
	if faulted != again {
		t.Fatalf("faulted unit not deterministic: %+v vs %+v", faulted, again)
	}
	if faulted == ideal {
		t.Fatalf("loss25+reorder left the run unchanged: %+v", faulted)
	}
}

// TestTenantsDimension: a tenants > 1 unit multiplexes T instances on
// one engine and aggregates exactly what T standalone units (same
// per-tenant seeds) would report — all-converged, slowest convergence
// beat, summed closure violations — deterministically at any worker
// count, while tenants = 0 keeps legacy grid hashes.
func TestTenantsDimension(t *testing.T) {
	plain := testGrid()
	legacy := plain.Hash()

	const T = 3
	g := testGrid()
	g.Tenants = T
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Hash() == legacy {
		t.Fatal("tenants dimension must change the grid hash")
	}
	if got, want := g.Units(), plain.Units(); got != want {
		t.Fatalf("tenants must not multiply units: %d vs %d", got, want)
	}

	u := g.UnitAt(0)
	mt, err := Runner{Workers: 1}.RunUnit(g, u)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Runner{Workers: 3}.RunUnit(g, u)
	if err != nil {
		t.Fatal(err)
	}
	rerun, err := Runner{Workers: 3}.RunUnit(g, u)
	if err != nil {
		t.Fatal(err)
	}
	// The resident column is a physical heap measurement outside the
	// bit-for-bit contract (see the Metrics doc), and it holds per-worker
	// state: each worker group's pool, its chunks sized to the group's
	// beat, and each worker's scratch buffer. Three tenants divide that
	// fixed cost by three, so Workers: 3 reads a few percent above
	// Workers: 1 (about 2 KB/tenant on a 58 KB reading). What holds is
	// stability at one worker count; everything else must match exactly.
	if mt.ResidentBytesPerTenant <= 0 || again.ResidentBytesPerTenant <= 0 || rerun.ResidentBytesPerTenant <= 0 {
		t.Fatalf("multi-tenant residency not measured: %+v, %+v, %+v", mt, again, rerun)
	}
	if rel := (rerun.ResidentBytesPerTenant - again.ResidentBytesPerTenant) / again.ResidentBytesPerTenant; rel > 0.05 || rel < -0.05 {
		t.Fatalf("resident bytes/tenant unstable across reruns: %+v vs %+v", again, rerun)
	}
	mtExact, againExact := mt, again
	mtExact.ResidentBytesPerTenant, againExact.ResidentBytesPerTenant = 0, 0
	if mtExact != againExact {
		t.Fatalf("multi-tenant unit depends on workers: %+v vs %+v", mt, again)
	}

	// Tenant tt's standalone run is the same unit with the seed base
	// shifted by tt (tenant seed = unit seed + tt).
	want := Result{Converged: true}
	for tt := 0; tt < T; tt++ {
		gs := testGrid()
		gs.SeedBase = int64(tt)
		r, err := Runner{Workers: 1}.RunUnit(gs, gs.UnitAt(0))
		if err != nil {
			t.Fatal(err)
		}
		if !r.Converged {
			want.Converged = false
		}
		if r.ConvBeats > want.ConvBeats {
			want.ConvBeats = r.ConvBeats
		}
		want.ClosureViolations += r.ClosureViolations
	}
	if mt.Converged != want.Converged || mt.ConvBeats != want.ConvBeats ||
		mt.ClosureViolations != want.ClosureViolations {
		t.Fatalf("aggregation mismatch: multiplexed %+v, standalone fold %+v", mt, want)
	}
	if mt.MsgsPerNodeBeat <= 0 || mt.BytesPerNodeBeat <= 0 {
		t.Fatalf("multi-tenant traffic not measured: %+v", mt)
	}
}

// TestNetsDimension: a udp/tcp unit runs the same multiplexed workload
// as a Lockstep noderuntime cluster over real loopback sockets and must
// report the exact convergence fold of its engine twin — same
// all-converged verdict, slowest convergence beat and closure
// violations — because Lockstep networked runs replay the engine
// byte-identically per tenant. Also pins the enumeration: nets widen
// the grid, change its hash, and legacy (empty-Nets) grids keep theirs.
func TestNetsDimension(t *testing.T) {
	base := Grid{
		Protocol: "clocksync", Coin: "fm", K: 16,
		Ns:          []int{4},
		Adversaries: []string{"splitter"},
		Layouts:     []string{"shared"},
		Faults:      []string{"loss15"},
		Tenants:     2,
		Seeds:       1,
		MaxBeats:    300,
		Hold:        6,
	}
	legacy := base.Hash()

	g := base
	g.Nets = []string{"engine", "udp", "tcp"}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Hash() == legacy {
		t.Fatal("nets dimension must change the grid hash")
	}
	if got, want := g.Units(), 3*base.Units(); got != want {
		t.Fatalf("nets must multiply units: %d vs %d", got, want)
	}

	results := make(map[string]Result, 3)
	for i := 0; i < g.Units(); i++ {
		u := g.UnitAt(i)
		r, err := Runner{Workers: 1}.RunUnit(g, u)
		if err != nil {
			t.Fatalf("unit %d (%s): %v", i, u.Net, err)
		}
		// Residency and traffic are substrate-local; the convergence fold
		// is the cross-substrate invariant.
		r.MsgsPerNodeBeat, r.BytesPerNodeBeat, r.ResidentBytesPerTenant = 0, 0, 0
		results[u.Net] = r
	}
	eng := results["engine"]
	if !eng.Converged {
		t.Fatalf("engine unit did not converge: %+v", eng)
	}
	for _, nt := range []string{"udp", "tcp"} {
		if results[nt] != eng {
			t.Fatalf("%s unit diverged from engine twin: %+v vs %+v", nt, results[nt], eng)
		}
	}
}

// TestGridValidate spot-checks the validator's rejections.
func TestGridValidate(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Grid)
	}{
		{"protocol", func(g *Grid) { g.Protocol = "nope" }},
		{"coin", func(g *Grid) { g.Coin = "nope" }},
		{"adversary", func(g *Grid) { g.Adversaries = []string{"nope"} }},
		{"layout", func(g *Grid) { g.Layouts = []string{"nope"} }},
		{"seeds", func(g *Grid) { g.Seeds = 0 }},
		{"ns", func(g *Grid) { g.Ns = nil }},
		{"maxbeats", func(g *Grid) { g.MaxBeats = 0 }},
		{"hold", func(g *Grid) { g.Hold = 0 }},
		{"k", func(g *Grid) { g.Protocol = "clocksync"; g.K = 0 }},
		{"fault", func(g *Grid) { g.Faults = []string{"loss200"} }},
		{"net", func(g *Grid) { g.Nets = []string{"carrier-pigeon"} }},
		{"tenants", func(g *Grid) { g.Tenants = -1 }},
	} {
		g := testGrid()
		tc.mutate(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: bad grid validated", tc.name)
		}
	}
	g := testGrid()
	if err := g.Validate(); err != nil {
		t.Errorf("good grid rejected: %v", err)
	}
}
