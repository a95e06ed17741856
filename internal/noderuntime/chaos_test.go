package noderuntime_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/net"
	"ssbyzclock/internal/noderuntime"
	"ssbyzclock/internal/proto"
)

// chaosRecorder collects per-(beat, node) clock readings from OnBeat
// callbacks across goroutines.
type chaosRecorder struct {
	mu    sync.Mutex
	byOne map[uint64]map[int]clockAt
}

func newChaosRecorder() *chaosRecorder {
	return &chaosRecorder{byOne: make(map[uint64]map[int]clockAt)}
}

func (r *chaosRecorder) onBeat(id int, beat uint64, p proto.Protocol) {
	c := readClock(p)
	r.mu.Lock()
	m := r.byOne[beat]
	if m == nil {
		m = make(map[int]clockAt)
		r.byOne[beat] = m
	}
	m[id] = c
	r.mu.Unlock()
}

// agreeStreak returns the longest run of consecutive beats ending by
// maxBeat in which every recorded node (at least quorum many) reports
// the same defined clock.
func (r *chaosRecorder) agreeStreak(maxBeat uint64, quorum int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	best, cur := 0, 0
	for b := uint64(0); b <= maxBeat; b++ {
		m := r.byOne[b]
		agreed := len(m) >= quorum
		var ref clockAt
		first := true
		for _, c := range m {
			if !c.ok {
				agreed = false
				break
			}
			if first {
				ref, first = c, false
			} else if c != ref {
				agreed = false
				break
			}
		}
		if agreed {
			cur++
			if cur > best {
				best = cur
			}
		} else {
			cur = 0
		}
	}
	return best
}

// chaosTiming keeps real-mode tests fast: quick retries, short beat
// timeout.
var chaosTiming = noderuntime.Timing{
	BeatTimeout: 250 * time.Millisecond,
	RetryMin:    3 * time.Millisecond,
	RetryMax:    30 * time.Millisecond,
}

// runChaos runs a real-mode cluster to maxBeats and requires a
// convergence streak: the cluster must end synchronized despite the
// faults. The stabilization bound is deliberately loose (the claim is
// "resyncs and stays synced", not a tight constant) but a cluster that
// never re-agrees fails.
func runChaos(l core.Layout, t *testing.T, cfg noderuntime.ClusterConfig, maxBeats uint64, wantStreak int) *noderuntime.Cluster {
	t.Helper()
	rec := newChaosRecorder()
	cfg.Factory = core.NewClockSyncProtocolLayout(16, coin.FMFactory{}, l)
	cfg.Mode = noderuntime.Real
	cfg.MaxBeats = maxBeats
	cfg.Timing = chaosTiming
	cfg.OnBeat = rec.onBeat
	cl, err := noderuntime.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	cl.Wait()
	cl.Stop()
	quorum := cfg.N - cfg.F
	if got := rec.agreeStreak(maxBeats, quorum); got < wantStreak {
		t.Fatalf("agreement streak %d beats, want >= %d (cluster did not resynchronize; stats %+v)",
			got, wantStreak, cl.Stats())
	}
	return cl
}

// TestChaosChanCluster is the chaos smoke over the in-process
// transport: 4 nodes, scrambled start, 30%% per-attempt loss (retries
// must beat it), inbox reordering, and one partition/heal cycle at
// beats [6,12). Gated on re-agreement within the run.
func TestChaosChanCluster(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			cfg := noderuntime.ClusterConfig{
				N: 4, F: 1, Seed: 2026, ScrambleStart: true,
				Links:          schedule(t, "partition+reorder", 55),
				AttemptLossPct: 30,
				MaxLatency:     2 * time.Millisecond,
			}
			cl := runChaos(l, t, cfg, 60, 8)
			if st := cl.Stats(); st.AttemptLost == 0 || st.Dropped == 0 {
				t.Fatalf("chaos run injected no faults: %+v", st)
			}
		})
	}
}

// TestChaosUDPCluster is the acceptance soak on real sockets: a 4-node
// loopback UDP cluster under seeded 30%% loss, delivery-latency jitter
// (the reorder window), and a partition/heal cycle, required to
// resynchronize within the run.
func TestChaosUDPCluster(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			tr, err := net.NewLoopbackUDP(4, 0)
			if err != nil {
				t.Fatal(err)
			}
			cfg := noderuntime.ClusterConfig{
				N: 4, F: 1, Seed: 31337, ScrambleStart: true,
				Transport:      tr,
				Links:          schedule(t, "partition+reorder", 99),
				AttemptLossPct: 30,
				MaxLatency:     4 * time.Millisecond,
			}
			runChaos(l, t, cfg, 60, 8)
		})
	}
}

// TestChaosTCPCluster runs the same storm over stream sockets (loss is
// injected above TCP — the transport itself is reliable, the schedule
// is not).
func TestChaosTCPCluster(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			tr, err := net.NewLoopbackTCP(4, 0)
			if err != nil {
				t.Fatal(err)
			}
			cfg := noderuntime.ClusterConfig{
				N: 4, F: 1, Seed: 4242, ScrambleStart: true,
				Transport:      tr,
				Links:          schedule(t, "partition+reorder", 12),
				AttemptLossPct: 30,
			}
			runChaos(l, t, cfg, 60, 8)
		})
	}
}

// TestCrashRestartResyncs kills a node mid-run and revives it with
// scrambled state: the survivor quorum keeps advancing, the reborn node
// catches up via the beat jump, and the cluster re-agrees — the
// self-stabilization claim exercised end to end, for one tenant and for
// several behind the same endpoints (Real mode, in-process transport,
// ideal links). F=1 matters: the quorum beat is the (n-f)-th highest
// peer position, so with f=0 the reborn node's own lag would veto its
// own jump forever.
func TestCrashRestartResyncs(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			for _, tenants := range []int{1, 3} {
				t.Run(fmt.Sprintf("T%d", tenants), func(t *testing.T) { crashRestartResyncs(l, t, tenants) })
			}
		})
	}
}

func crashRestartResyncs(l core.Layout, t *testing.T, tenants int) {
	recs := make([]*chaosRecorder, tenants)
	for tn := range recs {
		recs[tn] = newChaosRecorder()
	}
	// reached[id] reports node id's (tenant 0's) delivered beats; 0 paces
	// the script, 3 is the node that gets crashed and restarted.
	reached := map[int]chan uint64{0: make(chan uint64, 256), 3: make(chan uint64, 256)}
	cfg := noderuntime.ClusterConfig{
		N: 4, F: 1, Tenants: tenants, Seed: 808, ScrambleStart: true,
		Mode:   noderuntime.Real,
		Timing: chaosTiming,
		OnTenantBeat: func(tenant, id int, beat uint64, p proto.Protocol) {
			recs[tenant].onBeat(id, beat, p)
			if ch := reached[id]; ch != nil && tenant == 0 {
				select {
				case ch <- beat:
				default:
				}
			}
		},
	}
	cfg.Factory = core.NewClockSyncProtocolLayout(16, coin.FMFactory{}, l)
	cl, err := noderuntime.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	defer cl.Stop()

	waitBeat := func(id int, b uint64) {
		deadline := time.After(30 * time.Second)
		for {
			select {
			case got := <-reached[id]:
				if got >= b {
					return
				}
			case <-deadline:
				t.Fatalf("node %d never reached beat %d", id, b)
			}
		}
	}
	waitBeat(0, 10)
	if err := cl.Crash(3); err != nil {
		t.Fatal(err)
	}
	waitBeat(0, 20)
	if err := cl.Restart(3); err != nil {
		t.Fatal(err)
	}
	// Wait on the reborn node itself: the survivors run on regardless,
	// and it is its catch-up that the streak below needs beats for.
	waitBeat(3, 60)
	cl.Stop()

	// After the restart settles, the reborn node must be back in
	// agreement with the others — in every tenant.
	for tn, rec := range recs {
		rec.mu.Lock()
		var last uint64
		for b, m := range rec.byOne {
			if _, ok := m[3]; ok && b > last {
				last = b
			}
		}
		rec.mu.Unlock()
		if last < 30 {
			t.Fatalf("tenant %d: restarted node never caught up (last delivered beat %d)", tn, last)
		}
		if got := rec.agreeStreak(last, 4); got < 8 {
			t.Fatalf("tenant %d: no post-restart agreement streak (best %d)", tn, got)
		}
	}
}
