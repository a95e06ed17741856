package main

import (
	"testing"
	"time"

	"ssbyzclock/internal/noderuntime"
)

var shortBudget = budget{short: true, setups: 2}

func TestWorkloadGenerationDeterministicInSeed(t *testing.T) {
	if a, b := engineConfig(3, 5).Seed, engineConfig(3, 5).Seed; a != b {
		t.Fatalf("engineConfig not deterministic: %d vs %d", a, b)
	}
	// Consecutive seeds share no episode, tenant or cluster seed.
	seen := map[int64]bool{}
	for seed := int64(1); seed <= 3; seed++ {
		for ep := 0; ep < 1000; ep++ {
			s := engineConfig(seed, ep).Seed
			if seen[s] {
				t.Fatalf("seed %d episode %d reuses engine seed %d", seed, ep, s)
			}
			seen[s] = true
		}
	}
	if a, b := multiConfig(1, 1000).Node.Seed, multiConfig(2, 1000).Node.Seed; b-a < 1000 {
		t.Fatalf("multi seeds 1 and 2 overlap: base %d and %d with 1000 tenants", a, b)
	}
}

func TestEngineShortRunRepeatsExactly(t *testing.T) {
	a, err := runEngine(3, shortBudget, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runEngine(3, shortBudget, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.traceHash == 0 || a.traceHash != b.traceHash {
		t.Fatalf("trace_hash %x vs %x: same seed must repeat", a.traceHash, b.traceHash)
	}
	for _, name := range []string{"core.stabilize_beats_mean", "agreed_ratio", "sim.msgs_per_beat"} {
		if a.metrics[name] != b.metrics[name] {
			t.Errorf("%s: %v vs %v, want bit-for-bit equal", name, a.metrics[name], b.metrics[name])
		}
	}
	if a.failed != 0 || a.attempted != 3 {
		t.Fatalf("attempted %d failed %d, want 3 and 0: %v", a.attempted, a.failed, a.notes)
	}
	c, err := runEngine(4, shortBudget, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.traceHash == a.traceHash {
		t.Fatal("another seed produced the same trace_hash")
	}
}

// The traced pass drives the engine through the phased API; sim
// documents that as byte-identical to Step, and the benchmark relies
// on it: the per-layer numbers must describe the same execution the
// end-to-end numbers do.
func TestEnginePhasedDrivingMatchesStep(t *testing.T) {
	plain, err := runEngine(7, shortBudget, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	traced, err := runEngine(7, shortBudget, rec)
	if err != nil {
		t.Fatal(err)
	}
	if plain.traceHash != traced.traceHash {
		t.Fatalf("trace_hash: Step %x, phased %x", plain.traceHash, traced.traceHash)
	}
	if plain.metrics["core.stabilize_beats_mean"] != traced.metrics["core.stabilize_beats_mean"] {
		t.Fatal("stabilisation differs between Step and phased driving")
	}
	// The four phase spans tile the beat span: no untraced gap.
	var phases int64
	for _, ph := range []string{"sim.compose", "sim.exchange", "sim.deliver", "sim.finish"} {
		ns, n := rec.total(ph)
		if n != int64(plain.samples) {
			t.Fatalf("%s: %d spans, want one per beat (%d)", ph, n, plain.samples)
		}
		phases += ns
	}
	if beat, _ := rec.total("engine.beat"); phases != beat {
		t.Fatalf("phase spans sum to %d ns, beat spans to %d", phases, beat)
	}
	if self := rec.selfByName()["engine.beat"]; self != 0 {
		t.Fatalf("beat self time %d ns, want 0", self)
	}
	if traced.metrics["sim.bytes_per_beat"] <= 0 || plain.metrics["sim.bytes_per_beat"] != 0 {
		t.Fatal("bytes are counted on the traced pass only")
	}
}

func TestMultiShortRunPassesItsOracles(t *testing.T) {
	a, err := runMulti(5, shortBudget, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.attempted != shortTenants || a.failed != 0 {
		t.Fatalf("attempted %d failed %d: %v", a.attempted, a.failed, a.notes)
	}
	b, err := runMulti(5, shortBudget, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.traceHash == 0 || a.traceHash != b.traceHash {
		t.Fatalf("trace_hash %x vs %x: same seed must repeat", a.traceHash, b.traceHash)
	}
	if a.metrics["core.stabilize_beats_mean"] != b.metrics["core.stabilize_beats_mean"] {
		t.Fatal("stabilisation differs between two runs of one seed")
	}
}

func TestMultiOracleCheckCatchesADifferentTrace(t *testing.T) {
	cfg := multiConfig(5, shortTenants)
	r := setupMulti(cfg)
	if bad := r.checkOracles(cfg); len(bad) != 0 {
		t.Fatalf("fresh run fails its own oracles: %v", bad)
	}
	r.traces[2][warmBeats-1] ^= 1
	if bad := r.checkOracles(cfg); len(bad) != 1 || bad[0] != r.sampled[2] {
		t.Fatalf("corrupted trace of tenant %d: check reported %v", r.sampled[2], bad)
	}
}

func TestUDPWorkloadsRefuseShort(t *testing.T) {
	if _, err := runUDP(udpIdeal, 1, shortBudget, nil); err == nil {
		t.Fatal("udp-n4 -short must be refused: tests open no sockets")
	}
}

func TestStreak(t *testing.T) {
	s := newStreak()
	beat := 0
	feed := func(v uint64, ok bool) { s.observe(beat, v, ok); beat++ }
	feed(0, false)
	feed(9, true) // first agreement at beat 1
	feed(9, true) // agreed but not incremented: breaks the run
	for v := uint64(10); v < 20; v++ {
		feed(v%clockModulus, true)
	}
	if s.firstAgreed != 1 || s.stableAt != 3 || s.violations != 0 {
		t.Fatalf("firstAgreed %d stableAt %d violations %d, want 1, 3, 0", s.firstAgreed, s.stableAt, s.violations)
	}
	feed(0, false) // closure violation
	feed(63, true)
	feed(0, true) // wraps mod 64: good
	if s.violations != 1 || s.run != 2 {
		t.Fatalf("violations %d run %d, want 1 and 2", s.violations, s.run)
	}
	if s.seen != beat-1 || s.agreed != beat-2 {
		t.Fatalf("seen %d agreed %d over %d beats", s.seen, s.agreed, beat)
	}
}

// Synthetic beat logs: three nodes, 1 ms beats; node 2 times out once
// and skips a beat, after which the nodes disagree for three beats.
func TestAnalyzeBeats(t *testing.T) {
	tm := noderuntime.Timing{BeatTimeout: 250 * time.Millisecond, RetryMin: 20 * time.Millisecond}
	const ms = int64(time.Millisecond)
	logs := make([][]beatRec, 3)
	for node := range logs {
		now := int64(0)
		for b := uint64(0); b < 400; b++ {
			now += ms
			clock, ok := b%clockModulus, true
			if node == 2 {
				switch {
				case b == 100:
					continue // skipped by a catch-up jump
				case b == 101:
					now += 250 * ms // the timeout that preceded the jump
				case b == 150:
					now += 15 * ms // a retry
				}
				if b >= 101 && b < 104 {
					clock = (b + 5) % clockModulus // out of step until re-stabilised
				}
			}
			logs[node] = append(logs[node], beatRec{t: now, beat: b, clock: clock, ok: ok})
		}
	}
	a := analyzeBeats(logs, 0, 1<<62, tm)
	if a.nodeBeats != 1199 || a.clusterBeats() != 1199.0/3 {
		t.Errorf("nodeBeats %d clusterBeats %g, want 1199 and 1199/3", a.nodeBeats, a.clusterBeats())
	}
	if a.timeouts != 1 || a.retryBeats != 1 {
		t.Errorf("timeouts %d retryBeats %d, want 1 and 1", a.timeouts, a.retryBeats)
	}
	if a.tableBeats != 400 || a.seen != 400 || a.agreed != 396 {
		t.Errorf("table %d seen %d agreed %d, want 400, 400, 396", a.tableBeats, a.seen, a.agreed)
	}
	if len(a.desyncRuns) != 1 || a.desyncRuns[0] != 4 {
		t.Errorf("desync runs %v, want one of 4 beats", a.desyncRuns)
	}
	if a.stableAt != 0 || a.noFinalStreak != 0 {
		t.Errorf("stableAt %d noFinalStreak %d, want 0 and 0", a.stableAt, a.noFinalStreak)
	}
	// A window that ends inside the disagreement has no recent streak
	// only if it is also far from the last one; here beat 99 completed
	// one, so it still counts.
	if b := analyzeBeats(logs, 0, 103*ms, tm); b.noFinalStreak != 0 {
		t.Errorf("window ending at beat 102: noFinalStreak %d, want 0", b.noFinalStreak)
	}
	// Clocks that never agree: no streak at all.
	for i := range logs[1] {
		logs[1][i].clock = (logs[1][i].clock + 1) % clockModulus
	}
	if c := analyzeBeats(logs, 0, 1<<62, tm); c.noFinalStreak != 1 || c.agreed != 0 || c.stableAt != -1 {
		t.Errorf("disagreeing logs: noFinalStreak %d agreed %d stableAt %d", c.noFinalStreak, c.agreed, c.stableAt)
	}
	m := a
	m.merge(a)
	if m.nodeBeats != 2*a.nodeBeats || m.clusterBeats() != 2*a.clusterBeats() || len(m.intervalMs) != 2*len(a.intervalMs) {
		t.Errorf("merge did not pool counts: %+v", m)
	}
}
