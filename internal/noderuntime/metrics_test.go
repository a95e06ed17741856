package noderuntime_test

import (
	"strconv"
	"testing"
	"time"

	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/noderuntime"
	"ssbyzclock/internal/obs"
)

// snapshotValue reads one series value by name+node label (-1 if
// absent).
func snapshotValue(reg *obs.Registry, name, node string) float64 {
	for _, s := range reg.Snapshot() {
		if s.Name != name {
			continue
		}
		for _, l := range s.Labels {
			if l.Key == "node" && l.Value == node {
				return s.Value
			}
		}
	}
	return -1
}

// TestClusterMetricsWiring runs a Real-mode cluster on a lossy
// in-process network with a registry attached and checks that the
// scraped series match ground truth: per-node beat counters equal each
// node's delivered beats, the quorum-wait histogram records one
// observation per delivered beat, every node exports its pull and
// answer counts, whose resent frames are among the frames it counts,
// and the faultnet series mirror the endpoints' Stats.
func TestClusterMetricsWiring(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			const n, f, beats = 4, 1, 40
			reg := obs.NewRegistry()
			cl, err := noderuntime.NewCluster(noderuntime.ClusterConfig{
				N: n, F: f, Seed: 5, ScrambleStart: true,
				Mode:           noderuntime.Real,
				Factory:        core.NewClockSyncProtocolLayout(16, coin.FMFactory{}, l),
				AttemptLossPct: 20,
				MaxBeats:       beats,
				Timing:         noderuntime.Timing{BeatTimeout: 200 * time.Millisecond},
				Metrics:        reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			cl.Start()
			cl.Wait()
			defer cl.Stop()

			for i := 0; i < n; i++ {
				node := strconv.Itoa(i)
				wantBeats := float64(cl.Node(i).Beat())
				if got := snapshotValue(reg, "ssbyz_node_beats_total", node); got != wantBeats {
					t.Fatalf("node %d: beats series %v, node says %v", i, got, wantBeats)
				}
				// Real-mode await observes the quorum wait exactly once per
				// delivered beat.
				for _, s := range reg.Snapshot() {
					if s.Name != "ssbyz_node_quorum_wait_ms" || s.Hist == nil {
						continue
					}
					for _, l := range s.Labels {
						if l.Key == "node" && l.Value == node {
							if int(s.Hist.N()) != int(wantBeats) {
								t.Fatalf("node %d: quorum-wait N=%d, want %v", i, s.Hist.N(), wantBeats)
							}
						}
					}
				}
				pulls := snapshotValue(reg, "ssbyz_node_pulls_total", node)
				answers := snapshotValue(reg, "ssbyz_node_pull_answers_total", node)
				if pulls < 0 || answers < 0 {
					t.Fatalf("node %d: pull series missing (pulls %v, answers %v)", i, pulls, answers)
				}
				// One frame per link per delivered beat, plus one per pull (an
				// answer resends nothing after a catch-up jump).
				if frames := snapshotValue(reg, "ssbyz_net_frames_total", node); frames < n*wantBeats+pulls {
					t.Fatalf("node %d: %v frames counted, want >= %v beat frames + %v pulls", i, frames, n*wantBeats, pulls)
				}
			}
			if seriesSum(reg, "ssbyz_node_pulls_total") == 0 || seriesSum(reg, "ssbyz_node_pull_answers_total") == 0 {
				t.Fatal("20% attempt loss drew no pull or no answer")
			}

			st := cl.Stats()
			if st.AttemptLost == 0 {
				t.Fatalf("20%% attempt loss lost nothing: %+v", st)
			}
			var lostSeries float64
			for _, s := range reg.Snapshot() {
				if s.Name == "ssbyz_faultnet_attempt_lost_total" {
					lostSeries += s.Value
				}
			}
			if lostSeries != float64(st.AttemptLost) {
				t.Fatalf("faultnet series sum %v, Stats say %d", lostSeries, st.AttemptLost)
			}
		})
	}
}

// TestRestartAccumulatesSeries pins the restart contract: a crashed and
// restarted node re-registers the SAME series, so its beat counter
// keeps growing across incarnations instead of resetting.
func TestRestartAccumulatesSeries(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			const n, f = 4, 1
			reg := obs.NewRegistry()
			cl, err := noderuntime.NewCluster(noderuntime.ClusterConfig{
				N: n, F: f, Seed: 11, ScrambleStart: true,
				Mode:    noderuntime.Real,
				Factory: core.NewClockSyncProtocolLayout(16, coin.FMFactory{}, l),
				Timing:  noderuntime.Timing{BeatTimeout: 100 * time.Millisecond},
				Metrics: reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			cl.Start()
			waitForBeats := func(min float64) float64 {
				deadline := time.Now().Add(10 * time.Second)
				for {
					v := snapshotValue(reg, "ssbyz_node_beats_total", "0")
					if v >= min {
						return v
					}
					if time.Now().After(deadline) {
						t.Fatalf("node 0 never reached %v beats (at %v)", min, v)
					}
					time.Sleep(10 * time.Millisecond)
				}
			}
			before := waitForBeats(5)
			if err := cl.Crash(0); err != nil {
				t.Fatal(err)
			}
			if err := cl.Restart(0); err != nil {
				t.Fatal(err)
			}
			waitForBeats(before + 5)
			cl.Stop()
		})
	}
}

// TestPullWithNilRegistry runs the same lossy Real cluster detached from
// any registry, so loss recovery by pull counts into nil counters.
func TestPullWithNilRegistry(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			const n, f, beats = 4, 1, 40
			if noderuntime.NewNodeMetrics(nil, 0) != nil {
				t.Fatal("a nil registry must give nil metrics")
			}
			cl, err := noderuntime.NewCluster(noderuntime.ClusterConfig{
				N: n, F: f, Seed: 5, ScrambleStart: true,
				Mode:           noderuntime.Real,
				Factory:        core.NewClockSyncProtocolLayout(16, coin.FMFactory{}, l),
				AttemptLossPct: 20,
				MaxBeats:       beats,
				Timing:         noderuntime.Timing{BeatTimeout: 200 * time.Millisecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			cl.Start()
			cl.Wait()
			defer cl.Stop()
			for i := 0; i < n; i++ {
				if got := cl.Node(i).Beat(); got != beats {
					t.Fatalf("node %d stopped at beat %d, want %d", i, got, beats)
				}
			}
			if cl.Stats().AttemptLost == 0 {
				t.Fatal("20% attempt loss lost nothing")
			}
		})
	}
}
