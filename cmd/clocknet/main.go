// Command clocknet runs a whole networked clock-sync cluster in one
// process — n event-loop nodes over a real transport (in-process
// channels, loopback UDP or loopback TCP) with transport-level fault
// injection — and reports whether the cluster converged. It is the
// interactive and CI face of internal/noderuntime: the chaos smoke runs
// it under -race with 30% loss, reordering and a partition/heal cycle
// and gates on the convergence verdict.
//
// Usage:
//
//	clocknet [-n 4] [-f -1] [-k 16] [-transport chan|udp|tcp]
//	         [-mode real|lockstep] [-adv passive|splitter|replayer]
//	         [-faults partition+reorder] [-fault-seed 7] [-loss 30]
//	         [-latency 2ms] [-beats 60] [-hold 8] [-seed 1]
//	         [-beat-timeout 250ms] [-metrics-addr ADDR] [-quiet]
//
// -metrics-addr serves the whole cluster's internal/obs registry
// (per-node runtime and faultnet series) on /metrics, with /healthz
// going 503 when no node delivers a beat for a while.
//
// Exit status 0 means the honest clocks agreed for -hold consecutive
// beats somewhere in the run (under faults the interesting streak is at
// the tail, after the partition heals); 1 means they never did.
// SIGINT/SIGTERM stop the cluster gracefully and still print the
// summary for the beats that ran.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ssbyzclock/internal/adversary"
	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/faultnet"
	"ssbyzclock/internal/net"
	"ssbyzclock/internal/noderuntime"
	"ssbyzclock/internal/obs"
	"ssbyzclock/internal/proto"
)

func main() {
	os.Exit(run())
}

type reading struct {
	val uint64
	ok  bool
}

func run() int {
	var (
		n           = flag.Int("n", 4, "cluster size")
		f           = flag.Int("f", -1, "fault tolerance (default floor((n-1)/3))")
		k           = flag.Uint64("k", 16, "clock modulus")
		transport   = flag.String("transport", "chan", "transport: chan | udp | tcp")
		mode        = flag.String("mode", "real", "mode: real (quorum+timeouts) | lockstep (engine-equivalent)")
		advName     = flag.String("adv", "passive", "adversary (lockstep only): passive | splitter | replayer")
		faults      = flag.String("faults", "", "fault schedule (faultnet.Parse syntax; empty = ideal network)")
		faultSeed   = flag.Uint64("fault-seed", 7, "schedule seed")
		loss        = flag.Int("loss", 0, "per-attempt loss %, retries beat it (real mode)")
		latency     = flag.Duration("latency", 0, "random extra delivery latency up to this (real mode)")
		beats       = flag.Int("beats", 60, "beats to run")
		hold        = flag.Int("hold", 8, "consecutive agreeing beats required for exit 0")
		seed        = flag.Int64("seed", 1, "run seed")
		beatTimeout = flag.Duration("beat-timeout", 250*time.Millisecond, "real-mode beat timeout")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics and /healthz on this address (empty = off)")
		quiet       = flag.Bool("quiet", false, "only print the summary")
	)
	flag.Parse()
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "clocknet:", err)
		return 2
	}
	ff := *f
	if ff < 0 {
		ff = (*n - 1) / 3
	}
	if *n < 1 || ff < 0 || ff >= *n || *k < 1 {
		return fail(fmt.Errorf("bad shape n=%d f=%d k=%d: need n >= 1, 0 <= f < n, k >= 1", *n, ff, *k))
	}

	var tr net.Transport
	var err error
	switch *transport {
	case "chan":
		tr = nil // ClusterConfig default
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

	var md noderuntime.Mode
	switch *mode {
	case "real":
		md = noderuntime.Real
	case "lockstep":
		md = noderuntime.Lockstep
	default:
		return fail(fmt.Errorf("unknown mode %q", *mode))
	}

	var newAdv func(*adversary.Context) adversary.Adversary
	switch *advName {
	case "passive":
	case "splitter":
		newAdv = func(ctx *adversary.Context) adversary.Adversary { return &adversary.ClockSplitter{Ctx: ctx} }
	case "replayer":
		newAdv = func(ctx *adversary.Context) adversary.Adversary { return &adversary.Replayer{Ctx: ctx} }
	default:
		return fail(fmt.Errorf("unknown adversary %q", *advName))
	}

	var links faultnet.Schedule
	if *faults != "" && *faults != "none" {
		sched, err := faultnet.Parse(*faults)
		if err != nil {
			return fail(err)
		}
		sched.Seed = *faultSeed
		links = sched
	}

	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
	}
	var lastAdvance atomic.Int64
	lastAdvance.Store(time.Now().UnixNano())

	var mu sync.Mutex
	byBeat := map[uint64]map[int]reading{}
	cl, err := noderuntime.NewCluster(noderuntime.ClusterConfig{
		N: *n, F: ff, Seed: *seed, ScrambleStart: true,
		Mode:         md,
		Factory:      core.NewClockSyncProtocol(*k, coin.FMFactory{}),
		NewAdversary: newAdv,
		Links:        links,
		AttemptLossPct: func() int {
			if md == noderuntime.Real {
				return *loss
			}
			return 0
		}(),
		MaxLatency: *latency,
		Transport:  tr,
		MaxBeats:   uint64(*beats),
		Timing:     noderuntime.Timing{BeatTimeout: *beatTimeout},
		Metrics:    reg,
		OnBeat: func(id int, beat uint64, p proto.Protocol) {
			lastAdvance.Store(time.Now().UnixNano())
			var r reading
			if cr, ok := p.(proto.ClockReader); ok {
				r.val, r.ok = cr.Clock()
			}
			mu.Lock()
			m := byBeat[beat]
			if m == nil {
				m = make(map[int]reading)
				byBeat[beat] = m
			}
			m[id] = r
			mu.Unlock()
		},
	})
	if err != nil {
		return fail(err)
	}

	if reg != nil {
		stall := 5 * *beatTimeout
		if stall < 2*time.Second {
			stall = 2 * time.Second
		}
		srv, bound, serr := obs.Serve(*metricsAddr, reg, func() bool {
			return time.Since(time.Unix(0, lastAdvance.Load())) < stall
		})
		if serr != nil {
			return fail(serr)
		}
		defer srv.Close()
		fmt.Printf("metrics on http://%s/metrics\n", bound)
	}

	fmt.Printf("clocknet n=%d f=%d k=%d transport=%s mode=%s adv=%s faults=%q loss=%d%% beats=%d seed=%d\n",
		*n, ff, *k, *transport, *mode, *advName, *faults, *loss, *beats, *seed)
	cl.Start()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	donec := make(chan struct{})
	go func() { cl.Wait(); close(donec) }()
	select {
	case <-sigc:
		fmt.Println("signal: stopping the cluster")
	case <-donec:
	}
	signal.Stop(sigc)
	cl.Stop()

	honest := len(cl.HonestIDs())
	streak, bestStart := agreeStreak(byBeat, honest)
	if !*quiet {
		printTrajectory(byBeat, *n)
	}
	st := cl.Stats()
	fmt.Printf("injected faults: dropped=%d duplicated=%d delayed=%d attempt-lost=%d\n",
		st.Dropped, st.Duplicated, st.Delayed, st.AttemptLost)
	if streak >= *hold {
		fmt.Printf("CONVERGED: %d consecutive agreeing beats (>= %d) starting at beat %d\n",
			streak, *hold, bestStart)
		return 0
	}
	fmt.Printf("NOT CONVERGED: best agreement streak %d beats (< %d)\n", streak, *hold)
	return 1
}

// agreeStreak finds the longest run of consecutive beats in which every
// honest node recorded the same defined clock, and where it starts.
func agreeStreak(byBeat map[uint64]map[int]reading, honest int) (best int, bestStart uint64) {
	if len(byBeat) == 0 {
		return 0, 0
	}
	var max uint64
	for b := range byBeat {
		if b > max {
			max = b
		}
	}
	cur, curStart := 0, uint64(0)
	for b := uint64(0); b <= max; b++ {
		m := byBeat[b]
		agreed := len(m) >= honest
		var ref reading
		first := true
		for _, r := range m {
			if !r.ok {
				agreed = false
				break
			}
			if first {
				ref, first = r, false
			} else if r != ref {
				agreed = false
				break
			}
		}
		if !agreed {
			cur = 0
			continue
		}
		if cur == 0 {
			curStart = b
		}
		cur++
		if cur > best {
			best, bestStart = cur, curStart
		}
	}
	return best, bestStart
}

// printTrajectory prints the recorded clocks beat by beat, one column
// per node id, ⊥ for undefined and · for beats a node skipped.
func printTrajectory(byBeat map[uint64]map[int]reading, n int) {
	beats := make([]uint64, 0, len(byBeat))
	for b := range byBeat {
		beats = append(beats, b)
	}
	sort.Slice(beats, func(i, j int) bool { return beats[i] < beats[j] })
	for _, b := range beats {
		m := byBeat[b]
		fmt.Printf("%4d ", b)
		for id := 0; id < n; id++ {
			r, seen := m[id]
			switch {
			case !seen:
				fmt.Print("   ·")
			case !r.ok:
				fmt.Print("   ⊥")
			default:
				fmt.Printf(" %3d", r.val)
			}
		}
		fmt.Println()
	}
}
