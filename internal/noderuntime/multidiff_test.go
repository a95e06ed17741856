package noderuntime_test

import (
	"fmt"
	"sync"
	"testing"

	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/noderuntime"
	"ssbyzclock/internal/obs"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/sim"
)

// multiTrajectory runs the multi-tenant networked runtime in Lockstep
// over the in-process transport and records every (tenant, honest
// node)'s clock after each beat.
func multiTrajectory(t *testing.T, cfg noderuntime.MultiClusterConfig, beats int) map[int]map[int][]clockAt {
	t.Helper()
	var mu sync.Mutex
	out := make(map[int]map[int][]clockAt)
	cfg.Factory = core.NewClockSyncProtocol(16, coin.FMFactory{})
	cfg.MaxBeats = uint64(beats)
	cfg.OnBeat = func(tenant, id int, beat uint64, p proto.Protocol) {
		c := readClock(p)
		mu.Lock()
		if out[tenant] == nil {
			out[tenant] = make(map[int][]clockAt)
		}
		out[tenant][id] = append(out[tenant][id], c)
		mu.Unlock()
	}
	cl, err := noderuntime.NewMultiCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	cl.Wait()
	cl.Stop()
	return out
}

// TestMultiLockstepMatchesPerTenantOracles is the multi-tenant
// differential harness: a T-tenant networked run — tenants batched one
// frame per link per beat — must reproduce, for EVERY tenant, the
// standalone deterministic engine's honest clock trajectory at that
// tenant's seed, across the adversary × fault-schedule grid. Tenant t's
// oracle knows nothing of batching or multiplexing; any divergence is a
// batching bug by definition.
func TestMultiLockstepMatchesPerTenantOracles(t *testing.T) {
	const beats = 20
	const tenants = 5
	for advName, newAdv := range adversarySuite {
		for _, fault := range faultSuite {
			t.Run(fmt.Sprintf("%s/%s", advName, fault), func(t *testing.T) {
				seed := int64(63)
				got := multiTrajectory(t, noderuntime.MultiClusterConfig{
					N: 4, F: 1, Tenants: tenants, Seed: seed, ScrambleStart: true,
					NewAdversary: newAdv,
					Links:        schedule(t, fault, 0xBEEF),
				}, beats)
				for tn := 0; tn < tenants; tn++ {
					want := simTrajectory(sim.Config{
						N: 4, F: 1, Seed: seed + int64(tn), ScrambleStart: true,
						NewAdversary: newAdv,
						Links:        schedule(t, fault, 0xBEEF),
					}, beats)
					for id, ws := range want {
						gs := got[tn][id]
						if len(gs) != len(ws) {
							t.Fatalf("tenant %d node %d delivered %d beats, oracle %d", tn, id, len(gs), len(ws))
						}
						for b := range ws {
							if gs[b] != ws[b] {
								t.Fatalf("tenant %d node %d beat %d: batched runtime %+v, standalone oracle %+v",
									tn, id, b, gs[b], ws[b])
							}
						}
					}
				}
			})
		}
	}
}

// TestMultiLockstepPoisonSoak is the batched-frame ownership soak: a
// long multi-tenant run under the full fault mix with poisoned pools on
// the networked side and pooling off in every oracle. If any batched
// path — encode, the adversary host's per-tenant extraction, delayed
// batch redelivery — aliased a recycled compose payload, the poison
// scribble would change its bytes and some tenant would diverge.
func TestMultiLockstepPoisonSoak(t *testing.T) {
	const beats = 50
	const tenants = 4
	seed := int64(171)
	fault := "loss15+dup10+delay10+reorder+partition"
	got := multiTrajectory(t, noderuntime.MultiClusterConfig{
		N: 4, F: 1, Tenants: tenants, Seed: seed, ScrambleStart: true,
		Pool:         sim.PoolPoison,
		NewAdversary: adversarySuite["replayer"],
		Links:        schedule(t, fault, 23),
	}, beats)
	for tn := 0; tn < tenants; tn++ {
		want := simTrajectory(sim.Config{
			N: 4, F: 1, Seed: seed + int64(tn), ScrambleStart: true, Pool: sim.PoolOff,
			NewAdversary: adversarySuite["replayer"],
			Links:        schedule(t, fault, 23),
		}, beats)
		for id, ws := range want {
			gs := got[tn][id]
			if len(gs) != len(ws) {
				t.Fatalf("tenant %d node %d delivered %d beats, oracle %d", tn, id, len(gs), len(ws))
			}
			for b := range ws {
				if gs[b] != ws[b] {
					t.Fatalf("tenant %d node %d beat %d: poisoned runtime %+v, unpooled oracle %+v (recycled memory aliased)",
						tn, id, b, gs[b], ws[b])
				}
			}
		}
	}
}

// TestMultiFramesIndependentOfTenants pins the tentpole's transport
// claim: the number of batch frames a node sends per beat depends on
// links, not tenants. A 1-tenant and a 32-tenant run over an ideal
// network must send exactly the same number of batched frames.
func TestMultiFramesIndependentOfTenants(t *testing.T) {
	const beats = 10
	batchedFrames := func(tenants int) (batched, markers float64) {
		reg := obs.NewRegistry()
		cfg := noderuntime.MultiClusterConfig{
			N: 4, F: 1, Tenants: tenants, Seed: 7, ScrambleStart: true,
			Factory:  core.NewClockSyncProtocol(16, coin.FMFactory{}),
			MaxBeats: beats,
			Metrics:  reg,
		}
		cl, err := noderuntime.NewMultiCluster(cfg)
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
	b32, m32 := batchedFrames(32)
	if b1 == 0 || m1 != 0 {
		t.Fatalf("want batched frames and no standalone markers: batched=%v markers=%v", b1, m1)
	}
	if b32 != b1 || m32 != m1 {
		t.Fatalf("frames/beat scaled with tenants: T=1 (batched=%v, markers=%v), T=32 (batched=%v, markers=%v)",
			b1, m1, b32, m32)
	}
}
