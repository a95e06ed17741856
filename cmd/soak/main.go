// Command soak runs a networked clock-sync cluster for a wall-clock
// duration (or a beat budget) under a scripted sequence of live fault
// stages, and judges it twice: liveness from the cluster's own metrics
// registry — the same counters /metrics exports are the assertions, so
// a green soak certifies both the runtime and its observability — and
// agreement from the honest clocks themselves. The chaos smoke runs it
// under -race with 30% loss, reordering and a partition/heal cycle.
//
// Usage:
//
//	soak [-n 4] [-f -1] [-k 16] [-transport chan|udp|tcp]
//	     [-duration 60s] [-beats 0] [-schedule 0:none,20s:loss30,40s:none]
//	     [-seed 1] [-fault-seed 7] [-beat-timeout 100ms] [-latency 0]
//	     [-min-rate 1.0] [-stall 10s] [-metrics-addr ADDR] [-quiet]
//
// -schedule is a comma-separated list of OFFSET:SPEC stages; at each
// OFFSET (from process start) the SPEC becomes the live fault regime.
// SPEC uses faultnet.Parse syntax with soak semantics: lossNN is
// per-ATTEMPT loss (retransmission beats it — toggled through
// Cluster.SetAttemptLossPct), partition cuts even from odd ids for the
// whole stage (healed by the next stage) — except in the stage at
// offset 0, which starts at beat 0, so Parse's beat window [6,12)
// holds there and heals on its own (0:none,1ms:partition cuts for the
// whole first stage instead) — and dup/delay/reorder swap in
// through a faultnet.Switch. SIGHUP skips to the next stage
// immediately, so an operator can drive the toggling by hand. -beats
// ends the run when every node has run that many beats; -latency adds
// random delivery latency up to that long.
//
// Assertions, the first three metrics-derived:
//
//   - no stall: the slowest honest node's ssbyz_node_beats_total must
//     advance within every -stall window;
//   - overall rate: that node's beats/sec over the whole run must be at
//     least -min-rate;
//   - recovery: from the final stage's activation to the end of the
//     run, the slowest node must again sustain -min-rate (the final
//     stage should be a heal for this to mean recovery);
//   - agreement: the honest clocks were synchronized and incrementing by
//     one mod k for agreementHold (8) consecutive beats somewhere in the
//     run (sim.Judge, fed through a sim.Agreement window).
//
// Exit status: 0 all assertions green, 1 an assertion failed, 2 bad
// usage or setup.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/faultnet"
	"ssbyzclock/internal/net"
	"ssbyzclock/internal/noderuntime"
	"ssbyzclock/internal/obs"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// stage is one live fault regime, activated at offset `at` from start.
type stage struct {
	at          time.Duration
	spec        string
	attemptLoss int
	sched       faultnet.Schedule // nil = ideal links
}

// parseSchedule parses "0:none,20s:loss30+reorder,40s:none". Offsets
// must be ascending and the first must be 0.
func parseSchedule(s string, faultSeed uint64) ([]stage, error) {
	var out []stage
	for _, part := range strings.Split(s, ",") {
		off, spec, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("stage %q wants OFFSET:SPEC", part)
		}
		if off == "0" {
			off = "0s"
		}
		d, err := time.ParseDuration(off)
		if err != nil {
			return nil, fmt.Errorf("stage %q: %w", part, err)
		}
		st := stage{at: d, spec: spec}
		hs, err := faultnet.Parse(spec)
		if err != nil {
			return nil, err
		}
		hs.Seed = faultSeed
		// Soak semantics: lossNN is per-attempt (retries beat it), and a
		// partition after offset 0 holds for the whole stage; at offset
		// 0 the stage starts at beat 0, so Parse's beat window is
		// already stage-relative.
		st.attemptLoss = hs.LossPct
		hs.LossPct = 0
		for i := range hs.Partitions {
			if d > 0 {
				hs.Partitions[i].From, hs.Partitions[i].Until = 0, math.MaxUint64
			}
		}
		if hs.DupPct != 0 || hs.DelayPct != 0 || hs.Reorder || len(hs.Partitions) > 0 {
			st.sched = hs
		}
		if len(out) > 0 && d <= out[len(out)-1].at {
			return nil, fmt.Errorf("stage offsets must ascend (%v after %v)", d, out[len(out)-1].at)
		}
		out = append(out, st)
	}
	if len(out) == 0 || out[0].at != 0 {
		return nil, fmt.Errorf("schedule needs a stage at offset 0")
	}
	return out, nil
}

func run(args []string) int {
	fs := flag.NewFlagSet("soak", flag.ContinueOnError)
	var (
		n           = fs.Int("n", 4, "cluster size")
		f           = fs.Int("f", -1, "fault tolerance (default floor((n-1)/3))")
		k           = fs.Uint64("k", 16, "clock modulus")
		transport   = fs.String("transport", "chan", "transport: chan | udp | tcp")
		duration    = fs.Duration("duration", 60*time.Second, "wall-clock run length")
		scheduleStr = fs.String("schedule", "0:none,20s:loss30,40s:none", "comma-separated OFFSET:SPEC fault stages")
		seed        = fs.Int64("seed", 1, "run seed")
		faultSeed   = fs.Uint64("fault-seed", 7, "fault schedule seed")
		beats       = fs.Int("beats", 0, "end the run once every node has run this many beats (0 = run for -duration)")
		beatTimeout = fs.Duration("beat-timeout", 100*time.Millisecond, "real-mode beat timeout")
		latency     = fs.Duration("latency", 0, "random extra delivery latency up to this")
		minRate     = fs.Float64("min-rate", 1.0, "required beats/sec for the slowest honest node")
		stallLimit  = fs.Duration("stall", 10*time.Second, "fail if the slowest node gains no beat for this long")
		metricsAddr = fs.String("metrics-addr", "", "serve /metrics and /healthz on this address (empty = off)")
		quiet       = fs.Bool("quiet", false, "only print stage changes and the verdict")
	)
	if fs.Parse(args) != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "soak:", err)
		return 2
	}
	ff := *f
	if ff < 0 {
		ff = (*n - 1) / 3
	}
	if *n < 1 || ff < 0 || ff >= *n || *k < 1 || *beats < 0 {
		return fail(fmt.Errorf("bad shape n=%d f=%d k=%d beats=%d: need n >= 1, 0 <= f < n, k >= 1, beats >= 0", *n, ff, *k, *beats))
	}
	stages, err := parseSchedule(*scheduleStr, *faultSeed)
	if err != nil {
		return fail(err)
	}

	var tr net.Transport
	switch *transport {
	case "chan":
		tr = nil
	case "udp":
		tr, err = net.NewLoopbackUDP(*n, 0)
	case "tcp":
		tr, err = net.NewLoopbackTCPSeeded(*n, 0, *seed)
	default:
		err = fmt.Errorf("unknown transport %q", *transport)
	}
	if err != nil {
		return fail(err)
	}

	reg := obs.NewRegistry()
	sw := faultnet.NewSwitch(stages[0].sched)
	// agree judges the honest clocks; it is set before Start, so the
	// hook never sees it nil.
	var agree *sim.Agreement
	cl, err := noderuntime.NewCluster(noderuntime.ClusterConfig{
		N: *n, F: ff, Seed: *seed, ScrambleStart: true,
		Mode:           noderuntime.Real,
		Factory:        core.NewClockSyncProtocol(*k, coin.FMFactory{}),
		Links:          sw,
		AttemptLossPct: stages[0].attemptLoss,
		MaxLatency:     *latency,
		Transport:      tr,
		MaxBeats:       uint64(*beats),
		Timing:         noderuntime.Timing{BeatTimeout: *beatTimeout},
		Metrics:        reg,
		OnBeat:         func(id int, beat uint64, p proto.Protocol) { agree.Report(id, beat, p) },
	})
	if err != nil {
		return fail(err)
	}

	// The assertions read the SAME counters the nodes increment: the
	// registry dedups (name, labels) to one handle.
	honest := cl.HonestIDs()
	agree = sim.NewAgreement(honest, *k, agreementHold)
	beatCtr := make(map[int]*obs.Counter, len(honest))
	for _, id := range honest {
		beatCtr[id] = reg.Counter("ssbyz_node_beats_total", "", obs.Label{Key: "node", Value: strconv.Itoa(id)})
	}
	minBeats := func() uint64 {
		min := uint64(math.MaxUint64)
		for _, c := range beatCtr {
			if v := c.Load(); v < min {
				min = v
			}
		}
		return min
	}

	start := time.Now()
	// lastMin/lastGain are written by the sampler loop and read by the
	// /healthz handler goroutine.
	var lastMin atomic.Uint64
	var lastGain atomic.Int64
	lastGain.Store(start.UnixNano())
	if *metricsAddr != "" {
		srv, bound, serr := obs.Serve(*metricsAddr, reg, func() bool {
			// Healthy = the slowest node gained a beat recently.
			return minBeats() > lastMin.Load() ||
				time.Since(time.Unix(0, lastGain.Load())) < *stallLimit
		})
		if serr != nil {
			return fail(serr)
		}
		defer srv.Close()
		fmt.Printf("metrics on http://%s/metrics\n", bound)
	}

	fmt.Printf("soak n=%d f=%d k=%d transport=%s duration=%v beats=%d schedule=%q seed=%d\n",
		*n, ff, *k, *transport, *duration, *beats, *scheduleStr, *seed)
	cl.Start()
	// With -beats the nodes stop on their own; donec ends the run then.
	donec := make(chan struct{})
	go func() { cl.Wait(); close(donec) }()

	applyStage := func(i int) {
		st := stages[i]
		sw.Set(st.sched)
		cl.SetAttemptLossPct(st.attemptLoss)
		fmt.Printf("[%7.1fs] stage %d/%d: %s (attempt-loss=%d%%)\n",
			time.Since(start).Seconds(), i+1, len(stages), st.spec, st.attemptLoss)
	}
	applyStage(0)

	sighup := make(chan os.Signal, 1)
	signal.Notify(sighup, syscall.SIGHUP)
	sigstop := make(chan os.Signal, 1)
	signal.Notify(sigstop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sighup)
	defer signal.Stop(sigstop)

	next := 1
	stageTimer := time.NewTimer(stageDelay(stages, next, start))
	defer stageTimer.Stop()
	sample := time.NewTicker(250 * time.Millisecond)
	defer sample.Stop()
	endTimer := time.NewTimer(*duration)
	defer endTimer.Stop()

	// finalStart/finalMin anchor the recovery-rate assertion at the last
	// stage's activation.
	finalStart, finalMin := start, uint64(0)
	stalled := false

	advance := func() {
		if next < len(stages) {
			applyStage(next)
			if next == len(stages)-1 {
				finalStart, finalMin = time.Now(), minBeats()
			}
			next++
			stageTimer.Reset(stageDelay(stages, next, start))
		}
	}
	if len(stages) == 1 {
		finalMin = minBeats()
	}

loop:
	for {
		select {
		case <-endTimer.C:
			break loop
		case <-donec:
			break loop
		case <-sigstop:
			fmt.Println("signal: stopping early")
			break loop
		case <-sighup:
			advance()
		case <-stageTimer.C:
			advance()
		case <-sample.C:
			m := minBeats()
			if m > lastMin.Load() {
				lastMin.Store(m)
				lastGain.Store(time.Now().UnixNano())
			} else if time.Since(time.Unix(0, lastGain.Load())) > *stallLimit {
				stalled = true
				fmt.Printf("[%7.1fs] STALL: slowest node stuck at beat %d for >%v\n",
					time.Since(start).Seconds(), m, *stallLimit)
				break loop
			}
			if !*quiet {
				fmt.Printf("[%7.1fs] min-beat=%d\n", time.Since(start).Seconds(), m)
			}
		}
	}
	elapsed := time.Since(start)
	finalElapsed := time.Since(finalStart)
	endMin := minBeats()
	cl.Stop()

	// Summary straight from the registry snapshot — what a scraper saw.
	printSummary(reg, cl)

	ok := true
	if stalled {
		ok = false
	}
	overall := float64(endMin) / elapsed.Seconds()
	fmt.Printf("overall: min-beats=%d over %v = %.2f beats/s (min %.2f)\n", endMin, elapsed.Round(time.Millisecond), overall, *minRate)
	if overall < *minRate {
		fmt.Println("FAIL: overall rate below -min-rate")
		ok = false
	}
	if finalElapsed > time.Second { // recovery window too short to judge otherwise
		recov := float64(endMin-finalMin) / finalElapsed.Seconds()
		fmt.Printf("recovery: %d beats over %v = %.2f beats/s (min %.2f)\n", endMin-finalMin, finalElapsed.Round(time.Millisecond), recov, *minRate)
		if recov < *minRate {
			fmt.Println("FAIL: recovery rate below -min-rate")
			ok = false
		}
	}
	if !agreed(agree) {
		ok = false
	}
	if !ok {
		fmt.Println("SOAK FAILED")
		return 1
	}
	fmt.Println("SOAK OK")
	return 0
}

// agreementHold is the agreement gate's streak: the honest clocks must
// be synchronized and incrementing for this many consecutive beats.
const agreementHold = 8

// agreed prints and returns the agreement gate's verdict: did the
// honest clocks synchronize and increment for agreementHold consecutive
// beats?
func agreed(agree *sim.Agreement) bool {
	res := agree.Result()
	if !res.Converged {
		fmt.Printf("FAIL: no %d-beat agreement streak in %d judged beats (%d closure violations)\n",
			agreementHold, res.Beats, res.ClosureViolations)
		return false
	}
	fmt.Printf("agreement: converged at beat %d (hold %d, %d closure violations before)\n",
		res.ConvergedAt, agreementHold, res.ClosureViolations)
	return true
}

// stageDelay returns the wait until stage i activates (a long park when
// all stages are done — SIGHUP still works, the end timer still rules).
func stageDelay(stages []stage, i int, start time.Time) time.Duration {
	if i >= len(stages) {
		return 24 * time.Hour
	}
	d := time.Until(start.Add(stages[i].at))
	if d < 0 {
		d = 0
	}
	return d
}

// printSummary prints the node and faultnet series from the registry
// snapshot, aggregated across node labels.
func printSummary(reg *obs.Registry, cl *noderuntime.Cluster) {
	totals := map[string]float64{}
	for _, s := range reg.Snapshot() {
		if s.Kind == obs.KindCounter {
			totals[s.Name] += s.Value
		}
	}
	names := make([]string, 0, len(totals))
	for name := range totals {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %s %.0f\n", name, totals[name])
	}
	st := cl.Stats()
	fmt.Printf("injected faults: dropped=%d duplicated=%d delayed=%d attempt-lost=%d\n",
		st.Dropped, st.Duplicated, st.Delayed, st.AttemptLost)
}
