// Command clocknode runs ONE clock-synchronization node as a network
// daemon: it binds a socket, exchanges wire-framed protocol messages
// with its peers, and derives beats from message arrival (Real mode of
// internal/noderuntime — quorum advancement, retransmission with
// jittered backoff, catch-up after partitions). Start n of these, one
// per host or port, and they synchronize their clocks; kill and restart
// one with arbitrary state and it resyncs — the paper's
// self-stabilization claim as a running system.
//
// Usage:
//
//	clocknode -id 0 -peers 127.0.0.1:9000,127.0.0.1:9001,127.0.0.1:9002,127.0.0.1:9003 \
//	          [-listen ADDR] [-transport udp|tcp] [-f 1] [-k 16] [-seed 1] \
//	          [-faults loss20+reorder] [-fault-seed 7] [-loss 10] \
//	          [-beats 0] [-beat-timeout 1s] [-metrics-addr ADDR] \
//	          [-heartbeat 10s] [-quiet]
//
// The cluster size is len(-peers); -listen defaults to the node's own
// peers entry. -faults/-loss put the node's OUTGOING links on a seeded
// faulty network (every daemon should be given the same -faults and
// -fault-seed for a coherent schedule). -metrics-addr serves the node's
// internal/obs registry as Prometheus text on /metrics plus a /healthz
// that turns 503 when the beat stops advancing; -heartbeat logs a
// periodic one-line status (beat, beat delta, clock, retries) whatever
// the metrics setting. SIGINT/SIGTERM stop the node gracefully: the
// loop exits between beats and prints a summary.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
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
	os.Exit(run())
}

func run() int {
	var (
		id          = flag.Int("id", 0, "this node's id (index into -peers)")
		peersFlag   = flag.String("peers", "", "comma-separated peer addresses, node 0 first (required)")
		listen      = flag.String("listen", "", "listen address (default: own -peers entry)")
		transport   = flag.String("transport", "udp", "transport: udp | tcp")
		f           = flag.Int("f", -1, "fault tolerance (default floor((n-1)/3))")
		k           = flag.Uint64("k", 16, "clock modulus")
		seed        = flag.Int64("seed", 1, "protocol randomness seed")
		faults      = flag.String("faults", "", "fault schedule for outgoing links (faultnet.Parse syntax; empty = ideal)")
		faultSeed   = flag.Uint64("fault-seed", 1, "schedule seed (same on every daemon)")
		loss        = flag.Int("loss", 0, "per-attempt outgoing loss %, retries beat it")
		beats       = flag.Int("beats", 0, "stop after this many beats (0 = run until signalled)")
		beatTimeout = flag.Duration("beat-timeout", time.Second, "advance the beat even without a quorum after this long")
		scramble    = flag.Bool("scramble", true, "start from scrambled (arbitrary) protocol state")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics and /healthz on this address (empty = off)")
		heartbeat   = flag.Duration("heartbeat", 0, "log a one-line status this often (0 = off)")
		quiet       = flag.Bool("quiet", false, "only print the summary")
	)
	flag.Parse()
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "clocknode:", err)
		return 1
	}

	peers := strings.Split(*peersFlag, ",")
	n := len(peers)
	if *peersFlag == "" || n < 2 {
		return fail(fmt.Errorf("need -peers with at least 2 addresses"))
	}
	if *id < 0 || *id >= n {
		return fail(fmt.Errorf("-id %d out of range for %d peers", *id, n))
	}
	ff := *f
	if ff < 0 {
		ff = (n - 1) / 3
	}
	if ff >= n || *k < 1 {
		fmt.Fprintf(os.Stderr, "clocknode: bad shape n=%d f=%d k=%d: need 0 <= f < n, k >= 1\n", n, ff, *k)
		return 2
	}
	addr := *listen
	if addr == "" {
		addr = peers[*id]
	}

	var (
		ep  net.Endpoint
		err error
	)
	switch *transport {
	case "udp":
		ep, err = net.NewUDPEndpoint(*id, addr, peers, 0)
	case "tcp":
		ep, err = net.NewTCPEndpointSeeded(*id, addr, peers, 0, *seed)
	default:
		err = fmt.Errorf("unknown transport %q", *transport)
	}
	if err != nil {
		return fail(err)
	}

	// The registry exists whether or not it is served: the heartbeat and
	// the exit summary read the same counters the exporter would.
	reg := obs.NewRegistry()
	if rc, ok := ep.(net.ReconnectCounter); ok {
		reg.Func("ssbyz_net_reconnects_total", "Successful transport redials after each link's first connection.",
			obs.KindCounter, func() float64 { return float64(rc.Reconnects()) },
			obs.Label{Key: "node", Value: strconv.Itoa(*id)})
	}

	var sched *faultnet.HashSchedule
	wrapped := ep
	if *faults != "" && *faults != "none" {
		if sched, err = faultnet.Parse(*faults); err != nil {
			return fail(err)
		}
		sched.Seed = *faultSeed
	}
	var fep *faultnet.Endpoint
	if sched != nil || *loss > 0 {
		var link faultnet.Schedule
		if sched != nil {
			link = sched
		}
		fep = faultnet.Wrap(ep, link, faultnet.WrapConfig{
			FaultMarkers:   true,
			AttemptLossPct: *loss,
			AttemptSeed:    *faultSeed ^ uint64(*id)<<16,
			Metrics:        faultnet.NewEndpointMetrics(reg, *id),
		})
		wrapped = fep
	}

	inst := core.NewClockSyncProtocol(*k, coin.FMFactory{})(proto.Env{
		N: n, F: ff, ID: *id, Rng: sim.NodeRng(*seed, *id),
	})
	if *scramble {
		if s, ok := inst.(proto.Scrambler); ok {
			s.Scramble(sim.ScrambleRng(*seed ^ int64(*id)<<8))
		}
	}

	// lastAdvance/lastBeat/lastClock feed /healthz and the heartbeat
	// line; they are written from the node's loop goroutine, read from
	// HTTP handlers and the heartbeat ticker.
	var lastAdvance atomic.Int64 // unix nanos of the newest delivered beat
	var lastBeat atomic.Uint64
	var lastClock atomic.Int64 // -1 = undefined (⊥)
	lastAdvance.Store(time.Now().UnixNano())
	lastClock.Store(-1)
	verbose := !*quiet
	onBeat := func(_ int, beat uint64, p proto.Protocol) {
		lastAdvance.Store(time.Now().UnixNano())
		lastBeat.Store(beat)
		if cr, ok := p.(proto.ClockReader); ok {
			if v, defined := cr.Clock(); defined {
				lastClock.Store(int64(v))
				if verbose {
					fmt.Printf("beat %d clock %d\n", beat, v)
				}
				return
			}
			lastClock.Store(-1)
			if verbose {
				fmt.Printf("beat %d clock ⊥\n", beat)
			}
		}
	}
	var linkSched faultnet.Schedule
	if sched != nil {
		linkSched = sched
	}
	nd := noderuntime.NewNode(noderuntime.NodeConfig{
		N: n, F: ff, ID: *id,
		Mode:      noderuntime.Real,
		Endpoint:  wrapped,
		Links:     linkSched,
		Protocols: []proto.Protocol{inst},
		OnBeat:    onBeat,
		MaxBeats:  uint64(*beats),
		Timing:    noderuntime.Timing{BeatTimeout: *beatTimeout},
		// Jitter decorrelates retries across daemons sharing a seed.
		RetrySeed: *seed ^ int64(*id)<<32,
		Metrics:   noderuntime.NewNodeMetrics(reg, *id),
	})

	if *metricsAddr != "" {
		// Healthy = a beat was delivered recently; a wedged loop (dead
		// peers, hard partition) turns the endpoint red while the process
		// lives on.
		stall := 5 * *beatTimeout
		srv, bound, err := obs.Serve(*metricsAddr, reg, func() bool {
			return time.Since(time.Unix(0, lastAdvance.Load())) < stall
		})
		if err != nil {
			wrapped.Close()
			return fail(err)
		}
		defer srv.Close()
		fmt.Printf("metrics on http://%s/metrics\n", bound)
	}

	fmt.Printf("clocknode %d/%d (f=%d) on %s/%s k=%d faults=%q loss=%d%%\n",
		*id, n, ff, *transport, addr, *k, *faults, *loss)
	nd.Start()

	if *heartbeat > 0 {
		// Handle dedup: these are the SAME counters the node increments.
		nodeLbl := obs.Label{Key: "node", Value: strconv.Itoa(*id)}
		retrans := reg.Counter("ssbyz_node_retransmits_total", "", nodeLbl)
		timeouts := reg.Counter("ssbyz_node_beat_timeouts_total", "", nodeLbl)
		hbDone := make(chan struct{})
		defer close(hbDone)
		go func() {
			tick := time.NewTicker(*heartbeat)
			defer tick.Stop()
			var prevBeat uint64
			for {
				select {
				case <-hbDone:
					return
				case <-tick.C:
					b := lastBeat.Load()
					clock := "⊥"
					if c := lastClock.Load(); c >= 0 {
						clock = strconv.FormatInt(c, 10)
					}
					fmt.Printf("heartbeat beat=%d Δbeat=%d clock=%s retransmits=%d timeouts=%d\n",
						b, b-prevBeat, clock, retrans.Load(), timeouts.Load())
					prevBeat = b
				}
			}
		}()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	donec := make(chan struct{})
	go func() { nd.Wait(); close(donec) }()
	select {
	case <-sigc:
		fmt.Println("signal: stopping after the beat in flight")
		nd.Stop()
		nd.Wait()
	case <-donec:
	}
	signal.Stop(sigc)
	wrapped.Close()

	fmt.Printf("stopped after %d beats", nd.Beat())
	if fep != nil {
		st := fep.Stats()
		fmt.Printf("; injected faults: dropped=%d duplicated=%d delayed=%d attempt-lost=%d",
			st.Dropped, st.Duplicated, st.Delayed, st.AttemptLost)
	}
	fmt.Println()
	return 0
}
