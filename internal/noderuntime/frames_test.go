package noderuntime_test

// That a Lockstep cluster replays the engine byte for byte, per tenant,
// across the adversary and fault grid is a set of cells of
// internal/difftest; this file keeps the transport claim and the
// helpers the chaos tests share.

import (
	"testing"

	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/faultnet"
	"ssbyzclock/internal/noderuntime"
	"ssbyzclock/internal/obs"
	"ssbyzclock/internal/proto"
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

// TestFramesIndependentOfTenants pins the transport claim: the number
// of frames a node sends per beat depends on links, not tenants. Over
// an ideal network a 1-tenant and an 8-tenant run must both send
// exactly n frames per honest node-beat.
func TestFramesIndependentOfTenants(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			const n, f, beats = 4, 1, 10
			batchedFrames := func(tenants int) (batched, markers float64) {
				reg := obs.NewRegistry()
				cl, err := noderuntime.NewCluster(noderuntime.ClusterConfig{
					N: n, F: f, Tenants: tenants, Seed: 7, ScrambleStart: true,
					Mode:     noderuntime.Lockstep,
					Factory:  core.NewClockSyncProtocolLayout(16, coin.FMFactory{}, l),
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
		})
	}
}
