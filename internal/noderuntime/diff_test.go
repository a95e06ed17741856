package noderuntime_test

import (
	"fmt"
	"sync"
	"testing"

	"ssbyzclock/internal/adversary"
	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/faultnet"
	"ssbyzclock/internal/noderuntime"
	"ssbyzclock/internal/obs"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/sim"
)

// clockAt is one node's clock reading after one delivered beat.
type clockAt struct {
	val uint64
	ok  bool
}

func readClock(p proto.Protocol) clockAt {
	cr, isCR := p.(proto.ClockReader)
	if !isCR {
		return clockAt{}
	}
	v, ok := cr.Clock()
	return clockAt{val: v, ok: ok}
}

// simTrajectory runs the deterministic engine and records every honest
// node's clock after each beat — the oracle.
func simTrajectory(cfg sim.Config, beats int) map[int][]clockAt {
	e := sim.New(cfg, core.NewClockSyncProtocol(16, coin.FMFactory{}))
	out := make(map[int][]clockAt)
	for b := 0; b < beats; b++ {
		e.Step()
		for _, id := range e.HonestIDs() {
			out[id] = append(out[id], readClock(e.Node(id)))
		}
	}
	return out
}

// clusterTrajectory runs the networked runtime in Lockstep mode over the
// in-process transport and records the same observable for every
// (tenant, honest node).
func clusterTrajectory(t *testing.T, cfg noderuntime.ClusterConfig, beats int) map[int]map[int][]clockAt {
	t.Helper()
	var mu sync.Mutex
	out := make(map[int]map[int][]clockAt)
	cfg.Mode = noderuntime.Lockstep
	cfg.Factory = core.NewClockSyncProtocol(16, coin.FMFactory{})
	cfg.MaxBeats = uint64(beats)
	cfg.OnTenantBeat = func(tenant, id int, beat uint64, p proto.Protocol) {
		c := readClock(p)
		mu.Lock()
		if out[tenant] == nil {
			out[tenant] = make(map[int][]clockAt)
		}
		out[tenant][id] = append(out[tenant][id], c)
		mu.Unlock()
	}
	cl, err := noderuntime.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	cl.Wait()
	cl.Stop()
	return out
}

// requireOracleMatch holds every tenant of a networked run to its
// standalone oracle: tenant tn's honest clock trajectory must equal,
// beat for beat, that of a sim.Engine built from oracle at Seed+tn. The
// oracle knows nothing of batching or multiplexing; any divergence is a
// runtime bug by definition.
func requireOracleMatch(t *testing.T, got map[int]map[int][]clockAt, oracle sim.Config, tenants, beats int) {
	t.Helper()
	seed := oracle.Seed
	for tn := 0; tn < tenants; tn++ {
		oracle.Seed = seed + int64(tn)
		want := simTrajectory(oracle, beats)
		for id, ws := range want {
			gs := got[tn][id]
			if len(gs) != len(ws) {
				t.Fatalf("tenant %d node %d delivered %d beats, engine %d", tn, id, len(gs), len(ws))
			}
			for b := range ws {
				if gs[b] != ws[b] {
					t.Fatalf("tenant %d node %d beat %d: runtime %+v, engine %+v", tn, id, b, gs[b], ws[b])
				}
			}
		}
	}
}

func schedule(t *testing.T, name string, seed uint64) faultnet.Schedule {
	t.Helper()
	if name == "" {
		return nil
	}
	s, err := faultnet.Parse(name)
	if err != nil {
		t.Fatal(err)
	}
	s.Seed = seed
	return s
}

// adversarySuite names the adversaries the differential harness covers:
// passive faulty nodes, the clock splitter (the paper's rushing attack
// on clock agreement), and the replayer (stale-message injection, which
// also exercises the Clone discipline across the ownership boundary).
var adversarySuite = map[string]func(ctx *adversary.Context) adversary.Adversary{
	"passive":  nil,
	"splitter": func(ctx *adversary.Context) adversary.Adversary { return &adversary.ClockSplitter{Ctx: ctx} },
	"replayer": func(ctx *adversary.Context) adversary.Adversary { return &adversary.Replayer{Ctx: ctx} },
}

// faultSuite is the fault-schedule grid the equivalence claim covers.
var faultSuite = []string{
	"none",
	"loss20",
	"delay15",
	"dup10",
	"reorder",
	"partition",
	"loss15+dup10+delay10+reorder+partition",
}

// TestLockstepMatchesEngine is the differential harness of this
// runtime: for every (cluster size, tenant count, adversary, fault
// schedule) in the suite, the event-driven networked stack — tenants
// batched one frame per link per beat — must reproduce, for EVERY
// tenant, the deterministic engine's honest clock trajectory at that
// tenant's seed, beat for beat. The engine is the oracle.
func TestLockstepMatchesEngine(t *testing.T) {
	const beats = 24
	sizes := []struct{ n, f int }{{4, 1}, {8, 2}}
	for _, sz := range sizes {
		for _, tenants := range []int{1, 3} {
			for advName, newAdv := range adversarySuite {
				for _, fault := range faultSuite {
					t.Run(fmt.Sprintf("n%d/T%d/%s/%s", sz.n, tenants, advName, fault), func(t *testing.T) {
						seed := int64(41)
						got := clusterTrajectory(t, noderuntime.ClusterConfig{
							N: sz.n, F: sz.f, Tenants: tenants, Seed: seed, ScrambleStart: true,
							NewAdversary: newAdv,
							Links:        schedule(t, fault, 0xC0FFEE),
						}, beats)
						requireOracleMatch(t, got, sim.Config{
							N: sz.n, F: sz.f, Seed: seed, ScrambleStart: true,
							NewAdversary: newAdv,
							Links:        schedule(t, fault, 0xC0FFEE),
						}, tenants, beats)
					})
				}
			}
		}
	}
}

// TestLockstepPoisonSoak is the ownership-boundary soak: a long
// lockstep run under every fault kind with poisoned pools on the
// networked side and pooling disabled in every oracle. If any networked
// code path aliased a recycled compose payload — frames, the adversary
// host's per-tenant extraction, delayed redelivery — the poison
// scribble would change its bytes and some tenant would diverge.
func TestLockstepPoisonSoak(t *testing.T) {
	const beats = 60
	seed := int64(97)
	fault := "loss15+dup10+delay10+reorder+partition"
	for _, tenants := range []int{1, 3} {
		got := clusterTrajectory(t, noderuntime.ClusterConfig{
			N: 8, F: 2, Tenants: tenants, Seed: seed, ScrambleStart: true, Pool: sim.PoolPoison,
			NewAdversary: adversarySuite["replayer"],
			Links:        schedule(t, fault, 7),
		}, beats)
		requireOracleMatch(t, got, sim.Config{
			N: 8, F: 2, Seed: seed, ScrambleStart: true, Pool: sim.PoolOff,
			NewAdversary: adversarySuite["replayer"],
			Links:        schedule(t, fault, 7),
		}, tenants, beats)
	}
}

// TestFramesIndependentOfTenants pins the transport claim: the number
// of frames a node sends per beat depends on links, not tenants. Over
// an ideal network a 1-tenant and an 8-tenant run must both send
// exactly n frames per honest node-beat.
func TestFramesIndependentOfTenants(t *testing.T) {
	const n, f, beats = 4, 1, 10
	batchedFrames := func(tenants int) (batched, markers float64) {
		reg := obs.NewRegistry()
		cl, err := noderuntime.NewCluster(noderuntime.ClusterConfig{
			N: n, F: f, Tenants: tenants, Seed: 7, ScrambleStart: true,
			Mode:     noderuntime.Lockstep,
			Factory:  core.NewClockSyncProtocol(16, coin.FMFactory{}),
			MaxBeats: beats,
			Metrics:  reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		cl.Start()
		cl.Wait()
		cl.Stop()
		for _, s := range reg.Snapshot() {
			if s.Name != "ssbyz_net_frames_total" {
				continue
			}
			for _, l := range s.Labels {
				if l.Key == "kind" && l.Value == "batched" {
					batched += s.Value
				}
				if l.Key == "kind" && l.Value == "marker" {
					markers += s.Value
				}
			}
		}
		return batched, markers
	}
	b1, m1 := batchedFrames(1)
	b8, m8 := batchedFrames(8)
	if b1 != beats*n*(n-f) || m1 != 0 {
		t.Fatalf("want n frames per honest node-beat and no standalone markers: batched=%v markers=%v", b1, m1)
	}
	if b8 != b1 || m8 != m1 {
		t.Fatalf("frames/beat scaled with tenants: T=1 (batched=%v, markers=%v), T=8 (batched=%v, markers=%v)",
			b1, m1, b8, m8)
	}
}
