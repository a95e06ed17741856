package main

import (
	"fmt"
	"hash"
	"time"

	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/sim"
)

// What every workload runs: the shipped default stack (shared coin
// layout, FM coin, k=64) from a scrambled state, with default
// Workers/pool/kernel settings and a nil obs registry.
const (
	clockModulus = 64
	// holdBeats is the agreement+increment streak that counts as
	// stabilised (the repo's convergence tests use the same 8).
	holdBeats = 8
	// seedStride spreads consecutive -seed values apart, so seed s and
	// seed s+1 share no episode, tenant or cluster seed.
	seedStride = 1_000_003
)

var stackFactory sim.NodeFactory = core.NewClockSyncProtocolLayout(clockModulus, coin.FMFactory{}, core.LayoutShared)

// metrics maps a metric name (BENCHMARK.json) to its measured value.
type metrics map[string]float64

// budget says how long a workload's timed section runs. Normal runs
// are time-bounded (-seconds). -short runs are fixed-work and tiny:
// the smoke test uses them, so nothing in a short run reads the wall
// clock to decide what to do.
type budget struct {
	seconds float64
	short   bool
	// setups is how many times the workload sets up (the median is
	// reported as setup_s); the last set-up is the one that gets timed.
	setups int
}

// until returns a "stop now" predicate for a timed loop: after
// shortWork units in short mode, once the time budget is spent
// otherwise.
func (b budget) until(shortWork int) func(done int) bool {
	if b.short {
		return func(done int) bool { return done >= shortWork }
	}
	deadline := time.Now().Add(time.Duration(b.seconds * float64(time.Second)))
	return func(int) bool { return !time.Now().Before(deadline) }
}

// outcome is one pass (traced or untraced) of one workload.
type outcome struct {
	metrics   metrics
	attempted int // operations (see README: episode / tenant / node-beat)
	failed    int
	// traceHash is FNV-1a over the honest clocks of a fixed prefix of the
	// run, for the two deterministic workloads; 0 elsewhere.
	traceHash uint64
	// samples is the number of beat-time samples behind the percentiles.
	samples int
	notes   []string
}

func (o *outcome) notef(format string, a ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, a...))
}

// workload is one entry of BENCHMARK.json's workload list.
type workload struct {
	name string
	why  string
	run  func(seed int64, b budget, rec *recorder) (*outcome, error)
}

var workloads = []workload{
	{onEngine,
		"compute-bound: 200-beat episodes on fresh n=16 f=5 sim.Engines under ClockSplitter; field/gvss/coin/core do all the work, wire/net none",
		runEngine},
	{onMulti,
		"same protocol code, many small cold instances: 1000 n=4 tenants on one multi.Engine, ~60 MB working set, far beyond cache",
		runMulti},
	{onUDP,
		"I/O-path-bound: n=4 Real-mode cluster over loopback UDP, ideal links; wire/net/noderuntime take over 90% of the CPU, protocol compute under 10%",
		func(seed int64, b budget, rec *recorder) (*outcome, error) { return runUDP(udpIdeal, seed, b, rec) }},
	{onLoss,
		"same layer, other use: 5% per-attempt loss drives the retransmit, dedup, marker-gap, catch-up and beat-timeout paths; six clusters side by side",
		func(seed int64, b budget, rec *recorder) (*outcome, error) { return runUDP(udpLossy, seed, b, rec) }},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// clockReaders returns node ids' protocol instances as ClockReaders,
// once, so per-beat reads allocate nothing (sim.ReadClocks allocates
// two slices per call, which would pollute allocs_per_beat).
func clockReaders(e *sim.Engine) []proto.ClockReader {
	ids := e.HonestIDs()
	out := make([]proto.ClockReader, len(ids))
	for i, id := range ids {
		out[i], _ = e.Node(id).(proto.ClockReader)
	}
	return out
}

// agreedClock reports whether every reader holds the same defined
// clock, and that value.
func agreedClock(rs []proto.ClockReader) (uint64, bool) {
	var v0 uint64
	for i, r := range rs {
		if r == nil {
			return 0, false
		}
		v, ok := r.Clock()
		if !ok || (i > 0 && v != v0) {
			return 0, false
		}
		v0 = v
	}
	return v0, len(rs) > 0
}

// streak follows one protocol instance's honest clocks beat by beat
// and answers the two questions the paper asks: when did the instance
// stabilise (first beat of the first holdBeats-long run of beats on
// which all honest clocks agree and increment by one mod k), and did it
// stay stabilised afterwards (closure).
type streak struct {
	prev     uint64
	havePrev bool
	run      int // current good-run length
	// stableAt is the first beat of the first holdBeats-long good run,
	// -1 until one completes.
	stableAt int
	// violations counts bad beats after stableAt's run began.
	violations int
	// firstAgreed is the first beat with all honest clocks equal (-1
	// before); agreed/seen count beats from there on.
	firstAgreed  int
	agreed, seen int
}

func newStreak() streak { return streak{stableAt: -1, firstAgreed: -1} }

// observe feeds beat b's outcome: v, ok as returned by agreedClock.
func (s *streak) observe(b int, v uint64, ok bool) {
	if ok && s.firstAgreed < 0 {
		s.firstAgreed = b
	}
	if s.firstAgreed >= 0 {
		s.seen++
		if ok {
			s.agreed++
		}
	}
	good := ok && (!s.havePrev || v == (s.prev+1)%clockModulus)
	s.prev, s.havePrev = v, ok
	if good {
		s.run++
		if s.run == holdBeats && s.stableAt < 0 {
			s.stableAt = b - holdBeats + 1
		}
		return
	}
	s.run = 0
	if s.stableAt >= 0 {
		s.violations++
	}
}

// hashClocks folds every reader's (clock, defined) pair into h — one
// call per beat builds the workload's trace_hash.
func hashClocks(h hash.Hash64, rs []proto.ClockReader) {
	var buf [9]byte
	for _, r := range rs {
		var v uint64
		var ok bool
		if r != nil {
			v, ok = r.Clock()
		}
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		buf[8] = 0
		if ok {
			buf[8] = 1
		}
		h.Write(buf[:])
	}
}

// fillBeatMetrics fills the end-to-end metrics every workload derives
// the same way from its beat-time samples and its timed section's
// process cost.
func fillBeatMetrics(m metrics, beatMs []float64, cost procCost, beats, setupS float64) error {
	var err error
	m["setup_s"] = setupS
	m["beats_per_s"] = beats / (float64(cost.wallNs) / 1e9)
	if m["beat_ms_p90"], err = percentile(beatMs, 90); err != nil {
		return fmt.Errorf("%w (run longer: raise -seconds)", err)
	}
	m["proc.beat_ms_p50"] = percentileOrZero(beatMs, 50)
	m["proc.beat_ms_p99"] = percentileOrZero(beatMs, 99)
	m["cpu_ms_per_beat"] = float64(cost.cpuNs) / 1e6 / beats
	m["allocs_per_beat"] = float64(cost.mallocs) / beats
	return nil
}
