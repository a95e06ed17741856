package main

import (
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"ssbyzclock/internal/multi"
	"ssbyzclock/internal/net"
	"ssbyzclock/internal/noderuntime"
	"ssbyzclock/internal/obs"
	"ssbyzclock/internal/proto"
)

// udp-n4 / udp-n4-loss5: Real-mode noderuntime.Clusters of n=4 f=1
// over loopback UDP sockets, closed loop (a node composes its next beat
// only after a quorum completed the previous one), run until the time
// budget is spent. No message delay is injected: latency is processor
// time plus loopback syscalls.
const (
	udpN = 4
	udpF = 1
	// udpWarmBeats is how far every honest node must get before the
	// timed window opens (the tail of set-up).
	udpWarmBeats = 24
	// stallAfter: an honest node with no OnBeat for this long has
	// stalled; the run is stopped and counted failed.
	stallAfter = 5 * time.Second
)

// udpTiming is the workloads' Real-mode timing: a 250 ms beat timeout
// and the runtime's default retry backoff (20 ms doubling to 250 ms),
// written out because the latency-class metrics are defined by them.
var udpTiming = noderuntime.Timing{
	BeatTimeout: 250 * time.Millisecond,
	RetryMin:    20 * time.Millisecond,
	RetryMax:    250 * time.Millisecond,
}

// udpSpec is what distinguishes the two networked workloads.
type udpSpec struct {
	name    string
	lossPct int
	// clusters is how many independent clusters run side by side, their
	// statistics pooled. The ideal-link workload saturates the CPUs with
	// one. Under loss a cluster mostly waits (retry timers, beat
	// timeouts) and completes ~55 beats/s, so a single cluster's rates
	// rest on a few dozen timeout events per run; six clusters give six
	// times the events at about half a core.
	clusters int
}

var (
	udpIdeal = udpSpec{name: onUDP, lossPct: 0, clusters: 1}
	udpLossy = udpSpec{name: onLoss, lossPct: 5, clusters: 6}
)

type transportKind int

const (
	overUDP transportKind = iota
	overChan
	overTCP
)

// beatRec is what OnBeat leaves behind for one delivered beat of one
// node.
type beatRec struct {
	t     int64 // ns since the fleet's epoch
	beat  uint64
	clock uint64
	ok    bool
}

// nodeLog is one honest node's beat log. recs is appended only by the
// node's own goroutine and read after the cluster stopped; the atomics
// let the controller watch progress meanwhile.
type nodeLog struct {
	recs     []beatRec
	lastNs   atomic.Int64
	lastBeat atomic.Uint64
}

// liveCluster is a started cluster plus the benchmark's observers.
type liveCluster struct {
	cl     *noderuntime.Cluster
	epoch  time.Time
	honest []int
	logs   []*nodeLog    // by node id; nil for non-honest ids
	shims  []*nodeShim   // by node id; nil when untraced
	reg    *obs.Registry // nil when untraced
}

func since(epoch time.Time) int64 { return int64(time.Since(epoch)) }

// startCluster builds the transport and the cluster and starts it. A
// non-nil rec selects the traced configuration: transport and protocol
// shims and an obs registry. trace0 numbers the nodes' trace ids.
func startCluster(kind transportKind, lossPct int, seed int64, epoch time.Time, rec *recorder, trace0 int64) (*liveCluster, error) {
	var tr net.Transport
	var err error
	switch kind {
	case overUDP:
		tr, err = net.NewLoopbackUDP(udpN, 0)
	case overChan:
		tr = net.NewChanTransport(udpN, 0)
	case overTCP:
		tr, err = net.NewLoopbackTCPSeeded(udpN, 0, seed)
	}
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	c := &liveCluster{epoch: epoch, logs: make([]*nodeLog, udpN)}
	factory := stackFactory
	if rec != nil {
		c.reg = obs.NewRegistry()
		c.shims = make([]*nodeShim, udpN)
		for i := range c.shims {
			c.shims[i] = &nodeShim{rec: rec, trace: trace0 + int64(i), epoch: epoch}
		}
		tr = &shimTransport{inner: tr, nodes: c.shims}
		factory = shimFactory(stackFactory, c.shims)
	}
	cfg := noderuntime.ClusterConfig{
		N: udpN, F: udpF, Seed: seed, ScrambleStart: true,
		Mode:           noderuntime.Real,
		Factory:        factory,
		AttemptLossPct: lossPct,
		Transport:      tr,
		Timing:         udpTiming,
		Metrics:        c.reg,
		OnBeat:         c.onBeat,
	}
	if c.cl, err = noderuntime.NewCluster(cfg); err != nil {
		tr.Close()
		return nil, fmt.Errorf("cluster: %w", err)
	}
	c.honest = c.cl.HonestIDs()
	for _, id := range c.honest {
		c.logs[id] = &nodeLog{}
		c.logs[id].lastNs.Store(since(epoch))
	}
	c.cl.Start()
	return c, nil
}

// onBeat runs on node id's goroutine after each delivered beat.
func (c *liveCluster) onBeat(id int, beat uint64, p proto.Protocol) {
	now := since(c.epoch)
	if c.shims != nil {
		c.shims[id].beatDone(now)
	}
	lg := c.logs[id]
	if lg == nil {
		return
	}
	r := beatRec{t: now, beat: beat}
	if cr, ok := p.(proto.ClockReader); ok {
		r.clock, r.ok = cr.Clock()
	}
	lg.recs = append(lg.recs, r)
	lg.lastBeat.Store(beat)
	lg.lastNs.Store(now)
}

// honestLogs returns the honest nodes' beat logs (after stop).
func (c *liveCluster) honestLogs() [][]beatRec {
	out := make([][]beatRec, 0, len(c.honest))
	for _, id := range c.honest {
		out = append(out, c.logs[id].recs)
	}
	return out
}

// fleet is the set of clusters one networked run drives side by side.
type fleet struct {
	epoch    time.Time
	clusters []*liveCluster
}

func (f *fleet) stop() {
	for _, c := range f.clusters {
		c.cl.Stop()
	}
}

// stalled reports a cluster with an honest node that has delivered no
// beat for stallAfter.
func (f *fleet) stalled() (cluster, id int, ok bool) {
	now := since(f.epoch)
	for k, c := range f.clusters {
		for _, id := range c.honest {
			if now-c.logs[id].lastNs.Load() > int64(stallAfter) {
				return k, id, true
			}
		}
	}
	return 0, 0, false
}

// waitBeat blocks until every honest node of every cluster has
// delivered beat b.
func (f *fleet) waitBeat(b uint64) error {
	for {
		reached := true
		for _, c := range f.clusters {
			for _, id := range c.honest {
				if c.logs[id].lastBeat.Load() < b {
					reached = false
				}
			}
		}
		if reached {
			return nil
		}
		if k, id, bad := f.stalled(); bad {
			return fmt.Errorf("cluster %d node %d stalled before beat %d", k, id, b)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// setupFleet is one set-up: sockets, clusters, start, warm-up. It
// returns the running fleet and how long the set-up took.
func setupFleet(kind transportKind, spec udpSpec, seed int64, rec *recorder) (*fleet, float64, error) {
	t0 := time.Now()
	s0 := rec.now()
	f := &fleet{epoch: t0}
	for k := 0; k < spec.clusters; k++ {
		c, err := startCluster(kind, spec.lossPct, seed+int64(k), f.epoch, rec, int64(k*udpN+1))
		if err != nil {
			f.stop()
			return nil, 0, err
		}
		f.clusters = append(f.clusters, c)
	}
	if err := f.waitBeat(udpWarmBeats); err != nil {
		f.stop()
		return nil, 0, err
	}
	rec.add("noderuntime.setup", 0, 0, s0, rec.now())
	return f, time.Since(t0).Seconds(), nil
}

// timedWindow lets the running fleet work until the budget is spent
// (or a node stalls) and returns the window and its process cost.
func (f *fleet) timedWindow(b budget) (from, to int64, cost procCost, stall string) {
	stop := b.until(0)
	p0 := snapProc()
	from = since(f.epoch)
	for !stop(0) {
		time.Sleep(20 * time.Millisecond)
		if k, id, bad := f.stalled(); bad {
			stall = fmt.Sprintf("cluster %d node %d stalled (no beat for %s); run stopped", k, id, stallAfter)
			break
		}
	}
	to = since(f.epoch)
	cost.add(p0, snapProc())
	return
}

// analyze reads the window out of every cluster's logs and pools the
// results.
func (f *fleet) analyze(from, to int64) beatAnalysis {
	var all beatAnalysis
	for k, c := range f.clusters {
		a := analyzeBeats(c.honestLogs(), from, to, udpTiming)
		if k == 0 {
			all = a
		} else {
			all.merge(a)
		}
	}
	return all
}

func runUDP(spec udpSpec, seed int64, b budget, rec *recorder) (*outcome, error) {
	if b.short {
		return nil, fmt.Errorf("%s: -short covers the in-process workloads only (no sockets in tests)", spec.name)
	}
	out := &outcome{metrics: metrics{}}
	var setups, residents []float64
	var f *fleet
	nSetups := max(b.setups, 1)
	for i := 0; i < nSetups; i++ {
		if f != nil {
			f.stop()
			f = nil
		}
		// Only the timed fleet carries the shims: spans of set-ups that
		// are thrown away would be read by nobody.
		r := rec
		if i < nSetups-1 {
			r = nil
		}
		before := multi.LiveHeap()
		var s float64
		var err error
		if f, s, err = setupFleet(overUDP, spec, seed*seedStride+int64(i*spec.clusters), r); err != nil {
			return nil, err
		}
		setups = append(setups, s)
		residents = append(residents, heapGrowth(before))
	}
	var before map[string]float64
	if rec != nil {
		before = f.counterSums()
	}
	lost0 := f.attemptLost()
	from, to, cost, stall := f.timedWindow(b)
	lost1 := f.attemptLost()
	var after map[string]float64
	if rec != nil {
		after = f.counterSums()
	}
	f.stop()

	a := f.analyze(from, to)
	m := out.metrics
	out.samples = len(a.intervalMs)
	// A cluster beat is one beat delivered by the average honest node
	// (on ideal links every node delivers every beat; under loss a node
	// that was left behind skips some). CPU and allocations are per
	// cluster beat, summed over clusters; the rate is per cluster.
	beats := a.clusterBeats()
	if beats < 1 {
		return nil, fmt.Errorf("%s: no beat completed in the timed window", spec.name)
	}
	if err := fillBeatMetrics(m, a.intervalMs, cost, beats, median(setups)); err != nil {
		return nil, err
	}
	m["beats_per_s"] /= float64(spec.clusters)
	// The smallest reading: frames in flight on a running cluster only
	// ever add to the live heap.
	m["resident_bytes"] = slices.Min(residents) / float64(spec.clusters)
	if a.seen > 0 {
		m["agreed_ratio"] = float64(a.agreed) / float64(a.seen)
	}
	intervals := float64(max(len(a.intervalMs), 1))
	m["noderuntime.timeout_ratio"] = float64(a.timeouts) / intervals
	m["noderuntime.retry_beat_ratio"] = float64(a.retryBeats) / intervals
	m["noderuntime.desync_episodes_per_kbeat"] = 1e3 * float64(len(a.desyncRuns)) / float64(max(a.tableBeats, 1))
	m["noderuntime.restabilize_beats_p50"] = median(a.desyncRuns)
	m["faultnet.attempt_lost_per_beat"] = float64(lost1-lost0) / float64(a.nodeBeats)
	cost.procMetrics(m, beats)

	out.attempted = a.nodeBeats
	switch {
	case stall != "":
		out.failed = out.attempted
		out.notef("%s", stall)
	case a.noFinalStreak > 0:
		out.failed = out.attempted
		out.notef("%d of %d clusters: no %d-beat agreement streak in the last %d beats",
			a.noFinalStreak, spec.clusters, holdBeats, finalWindowBeats)
	}
	if rec != nil {
		f.fillShimMetrics(m, after, before, a)
	}
	out.notef("%d cluster(s): %.0f cluster beats (%d honest node-beats) in %.2f s; %.2f%% of node-beats hit the %s timeout, %.2f%% waited for a retry; longest stretch without an agreement streak: %d beats",
		spec.clusters, beats, a.nodeBeats, float64(to-from)/1e9,
		100*m["noderuntime.timeout_ratio"], udpTiming.BeatTimeout, 100*m["noderuntime.retry_beat_ratio"], a.maxStreakGap)
	return out, nil
}

// transportBeatsPerS is the net.chan/net.tcp rung: the same cluster
// config over another transport, untraced, for a slice of the budget.
func transportBeatsPerS(kind transportKind, spec udpSpec, seed int64, b budget) (float64, error) {
	f, _, err := setupFleet(kind, spec, seed*seedStride, nil)
	if err != nil {
		return 0, err
	}
	from, to, _, _ := f.timedWindow(b)
	f.stop()
	a := f.analyze(from, to)
	return a.clusterBeats() / float64(spec.clusters) / (float64(to-from) / 1e9), nil
}

// attemptLost sums the per-attempt losses faultnet injected so far.
func (f *fleet) attemptLost() uint64 {
	var n uint64
	for _, c := range f.clusters {
		n += c.cl.Stats().AttemptLost
	}
	return n
}

// counterSums reads the clusters' registries: every counter series
// summed over the honest nodes' label values, keyed by series name.
func (f *fleet) counterSums() map[string]float64 {
	out := map[string]float64{}
	for _, c := range f.clusters {
		isHonest := map[string]bool{}
		for _, id := range c.honest {
			isHonest[strconv.Itoa(id)] = true
		}
		for _, s := range c.reg.Snapshot() {
			if s.Kind != obs.KindCounter {
				continue
			}
			for _, l := range s.Labels {
				if l.Key == "node" && isHonest[l.Value] {
					out[s.Name] += s.Value
				}
			}
		}
	}
	return out
}

// quorumWaitP50 is the median of the nodes' median quorum waits, from
// the runtime's own millisecond-bucket histograms.
func (f *fleet) quorumWaitP50() float64 {
	var meds []float64
	for _, c := range f.clusters {
		for _, s := range c.reg.Snapshot() {
			if s.Name == "ssbyz_node_quorum_wait_ms" && s.Hist != nil && s.Hist.N() > 0 {
				meds = append(meds, s.Hist.Median())
			}
		}
	}
	return median(meds)
}
