package main

import (
	"fmt"
	"hash/fnv"
	"slices"
	"time"

	"ssbyzclock/internal/multi"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/sim"
)

// multi-n4-t1000: one multi.Engine stepping 1,000 independent n=4 f=1
// tenants, each from a scrambled state: warmBeats beats of warm-up
// (part of set-up), then Step() until the time budget is spent.
const (
	multiTenants = 1000
	multiN       = 4
	multiF       = 1
	warmBeats    = 12
	// oracleBeats is how many beats (from beat 0, warm-up included) the
	// sampled tenants' clock traces are compared with standalone
	// engines; trace_hash covers the same prefix.
	oracleBeats    = 50
	oracleTenants  = 8
	fleetSteps     = 100 // naive-fleet rung length (traced pass)
	shortTenants   = 24
	shortMultiStep = 110
)

func multiConfig(seed int64, tenants int) multi.Config {
	return multi.Config{
		Tenants: tenants,
		Node:    sim.Config{N: multiN, F: multiF, Seed: seed * seedStride, ScrambleStart: true},
	}
}

// multiRun is one built-and-warmed multi engine plus the per-tenant
// observers the correctness checks need.
type multiRun struct {
	m        *multi.Engine
	readers  [][]proto.ClockReader // per tenant
	streaks  []streak
	sampled  []int      // tenant ids checked against oracles
	traces   [][]uint64 // per sampled tenant: one clockWord per beat
	beat     int
	setupS   float64
	resident float64 // live-heap bytes the warmed fleet holds
}

// clockWord packs one tenant-beat's honest clocks for trace comparison:
// agreed value + 1, or 0 when not agreed. (The oracle comparison wants
// exact equality of what the checks observe, not of internal state.)
func clockWord(rs []proto.ClockReader) uint64 {
	if v, ok := agreedClock(rs); ok {
		return v + 1
	}
	return 0
}

func setupMulti(cfg multi.Config) *multiRun {
	T := cfg.Tenants
	r := &multiRun{readers: make([][]proto.ClockReader, T), streaks: make([]streak, T)}
	for i := 0; i < oracleTenants && i < T; i++ {
		r.sampled = append(r.sampled, i*T/oracleTenants+T/(2*oracleTenants))
	}
	r.traces = make([][]uint64, len(r.sampled))
	before := multi.LiveHeap()
	t0 := time.Now()
	r.m = multi.New(cfg, stackFactory)
	for t := 0; t < T; t++ {
		r.readers[t] = clockReaders(r.m.Tenant(t))
		r.streaks[t] = newStreak()
	}
	for i := 0; i < warmBeats; i++ {
		r.step()
	}
	r.setupS = time.Since(t0).Seconds()
	r.resident = heapGrowth(before)
	return r
}

// step runs one beat and feeds the observers; it returns the Step()
// call's own duration.
func (r *multiRun) step() time.Duration {
	t0 := time.Now()
	r.m.Step()
	d := time.Since(t0)
	for t := range r.readers {
		v, ok := agreedClock(r.readers[t])
		r.streaks[t].observe(r.beat, v, ok)
	}
	if r.beat < oracleBeats {
		for i, t := range r.sampled {
			r.traces[i] = append(r.traces[i], clockWord(r.readers[t]))
		}
	}
	r.beat++
	return d
}

// checkOracles replays each sampled tenant standalone and reports the
// tenants whose observed clock trace differs.
func (r *multiRun) checkOracles(cfg multi.Config) []int {
	var bad []int
	for i, t := range r.sampled {
		e := sim.New(multi.TenantConfig(cfg, t), stackFactory)
		rs := clockReaders(e)
		for b := 0; b < len(r.traces[i]); b++ {
			e.Step()
			if clockWord(rs) != r.traces[i][b] {
				bad = append(bad, t)
				break
			}
		}
	}
	return bad
}

func runMulti(seed int64, b budget, rec *recorder) (*outcome, error) {
	out := &outcome{metrics: metrics{}}
	cfg := multiConfig(seed, multiTenants)
	if b.short {
		cfg.Tenants = shortTenants
	}
	T := cfg.Tenants

	var setups, residents []float64
	var r *multiRun
	for i := 0; i < max(b.setups, 1); i++ {
		r = nil // release the previous fleet before measuring the next
		s0 := rec.now()
		r = setupMulti(cfg)
		rec.add("multi.setup", 0, int64(i+1), s0, rec.now())
		setups = append(setups, r.setupS)
		residents = append(residents, r.resident)
	}

	stop := b.until(shortMultiStep)
	var stepMs []float64
	var cost procCost
	msgs0 := r.m.HonestMsgs() + r.m.FaultyMsgs()
	from := snapProc()
	for steps := 0; !stop(steps); steps++ {
		s0 := rec.now()
		d := r.step()
		rec.add("multi.step", 0, 1, s0, s0+int64(d))
		stepMs = append(stepMs, float64(d)/1e6)
	}
	cost.add(from, snapProc())
	msgs := r.m.HonestMsgs() + r.m.FaultyMsgs() - msgs0

	steps := len(stepMs)
	beats := float64(steps * T)
	m := out.metrics
	out.samples = steps
	if err := fillBeatMetrics(m, stepMs, cost, beats, median(setups)); err != nil {
		return nil, err
	}
	m["resident_bytes"] = slices.Min(residents)
	m["multi.resident_bytes_per_tenant"] = slices.Min(residents) / float64(T)
	m["multi.ns_per_tenant_beat"] = float64(cost.wallNs) / beats
	m["multi.setup_ms_per_tenant"] = median(setups) * 1e3 / float64(T)
	m["sim.msgs_per_beat"] = float64(msgs) / beats
	cost.procMetrics(m, beats)

	// Correctness: sampled tenants against standalone oracles, every
	// tenant agreed at the end.
	out.attempted = T
	failed := map[int]bool{}
	for _, t := range r.checkOracles(cfg) {
		failed[t] = true
		out.notef("tenant %d: clock trace differs from its standalone oracle", t)
	}
	var agreed, seen int
	var stab []float64
	for t := range r.streaks {
		st := &r.streaks[t]
		agreed += st.agreed
		seen += st.seen
		if _, ok := agreedClock(r.readers[t]); !ok {
			failed[t] = true
			out.notef("tenant %d: honest clocks not agreed at the end (beat %d)", t, r.beat)
		}
		if st.stableAt >= 0 {
			stab = append(stab, float64(st.stableAt))
		} else {
			stab = append(stab, float64(r.beat))
		}
	}
	out.failed = len(failed)
	if seen > 0 {
		m["agreed_ratio"] = float64(agreed) / float64(seen)
	}
	m["core.stabilize_beats_mean"] = mean(stab)

	h := fnv.New64a()
	for _, tr := range r.traces {
		for _, w := range tr {
			fmt.Fprintf(h, "%d,", w)
		}
	}
	out.traceHash = h.Sum64()
	out.notef("%d tenants x %d steps after %d warm beats; %.0f resident B/tenant; stabilised in %.2f beats on average",
		T, steps, warmBeats, m["multi.resident_bytes_per_tenant"], mean(stab))

	if rec != nil && !b.short {
		m["multi.vs_fleet_ratio"] = m["multi.ns_per_tenant_beat"] / fleetNsPerTenantBeat(cfg, rec)
	}
	return out, nil
}

// fleetNsPerTenantBeat is the "does the multiplexer earn its lines"
// rung: the same T tenants as a naive fleet of standalone sim.Engines
// (Workers 1, own pools) stepped round-robin in this process.
func fleetNsPerTenantBeat(cfg multi.Config, rec *recorder) float64 {
	fleet := make([]*sim.Engine, cfg.Tenants)
	for t := range fleet {
		fleet[t] = sim.New(multi.TenantConfig(cfg, t), stackFactory)
	}
	step := func() {
		for _, e := range fleet {
			e.Step()
		}
	}
	for i := 0; i < warmBeats; i++ {
		step()
	}
	s0 := rec.now()
	t0 := time.Now()
	for i := 0; i < fleetSteps; i++ {
		step()
	}
	d := time.Since(t0)
	rec.add("multi.fleet_rung", 0, 0, s0, rec.now())
	return float64(d) / float64(fleetSteps*cfg.Tenants)
}
