package noderuntime_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/net"
	"ssbyzclock/internal/noderuntime"
	"ssbyzclock/internal/obs"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/sim"
	"ssbyzclock/internal/wire"
)

// dropFirstTransport loses the first attempt of chosen link-beats, keyed
// (beat, from, to), and lets every later attempt through.
type dropFirstTransport struct {
	net.Transport
	mu   sync.Mutex
	drop map[[3]uint64]bool
}

type dropFirstEndpoint struct {
	net.Endpoint
	t *dropFirstTransport
}

func (t *dropFirstTransport) Endpoint(id int) (net.Endpoint, error) {
	ep, err := t.Transport.Endpoint(id)
	if err != nil {
		return nil, err
	}
	return dropFirstEndpoint{Endpoint: ep, t: t}, nil
}

func (e dropFirstEndpoint) Send(to int, frame []byte) error {
	if f, err := wire.DecodeFrame(frame); err == nil {
		k := [3]uint64{f.Beat, uint64(f.From), uint64(to)}
		e.t.mu.Lock()
		lose := e.t.drop[k]
		delete(e.t.drop, k)
		e.t.mu.Unlock()
		if lose {
			return nil
		}
	}
	return e.Endpoint.Send(to, frame)
}

// TestPullRecoversTwoLossesWithoutTimers loses two link-beats of one
// beat into different receivers, (5, 0→1) and (5, 2→3), with every
// timer an hour long. Neither receiver sees a quorum ahead of it, so
// without pull both wait for a retry tick that never comes; with pull,
// each asks the sender that moved on and gets its beat back in one
// round trip.
func TestPullRecoversTwoLossesWithoutTimers(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			const n, f, target = 4, 1, 20
			tr := &dropFirstTransport{
				Transport: net.NewChanTransport(n, 0),
				drop:      map[[3]uint64]bool{{5, 0, 1}: true, {5, 2, 3}: true},
			}
			var reached [n]atomic.Uint64
			cl, err := noderuntime.NewCluster(noderuntime.ClusterConfig{
				N: n, F: f, Seed: 7, ScrambleStart: true,
				Mode:      noderuntime.Real,
				Factory:   core.NewClockSyncProtocolLayout(16, coin.FMFactory{}, l),
				Transport: tr,
				MaxBeats:  target,
				Timing:    noderuntime.Timing{BeatTimeout: time.Hour, RetryMin: time.Hour, RetryMax: time.Hour},
				OnBeat:    func(id int, beat uint64, _ proto.Protocol) { reached[id].Store(beat + 1) },
			})
			if err != nil {
				t.Fatal(err)
			}
			cl.Start()
			done := make(chan struct{})
			go func() { cl.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
			}
			cl.Stop()
			for id := range reached {
				if got := reached[id].Load(); got != target {
					t.Errorf("node %d reached beat %d within 5s, want %d", id, got, target)
				}
			}
			tr.mu.Lock()
			defer tr.mu.Unlock()
			if len(tr.drop) != 0 {
				t.Fatalf("link-beats never sent, so never lost: %v", tr.drop)
			}
		})
	}
}

// TestPullIdleOnIdealLinks runs a Real cluster on a lossless FIFO
// transport, where a peer's beat-r frame always arrives before its later
// ones: a pull would mean a link-beat taken for lost that was not.
func TestPullIdleOnIdealLinks(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			const n, f, beats = 4, 1, 300
			reg := obs.NewRegistry()
			cl, err := noderuntime.NewCluster(noderuntime.ClusterConfig{
				N: n, F: f, Seed: 3, ScrambleStart: true,
				Mode:     noderuntime.Real,
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
			if got := seriesSum(reg, "ssbyz_node_pulls_total"); got != 0 {
				t.Fatalf("%v pulls over %d beats of ideal links, want 0", got, beats)
			}
			if got := seriesSum(reg, "ssbyz_node_beats_total"); got != n*beats {
				t.Fatalf("%v node-beats, want %d", got, n*beats)
			}
		})
	}
}

// seriesSum adds up every series named name.
func seriesSum(reg *obs.Registry, name string) float64 {
	var sum float64
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			sum += s.Value
		}
	}
	return sum
}

// TestForgedQuorumOverUDP is the forged-quorum attack on real loopback
// sockets. Node 3 is Byzantine: from its own socket it keeps sending
// every honest node n-f frames that claim ids 1, 2 and 3 at beat 2^40.
// Were the header's id trusted, the honest nodes' quorum beat would be
// 2^40 and they would jump there for good. The transport names the
// sender by source address, so only the claim to be 3 gets through: one
// liar among n peers moves at most f of the positions the quorum beat
// is an order statistic of. The honest nodes must keep beating and
// converge.
func TestForgedQuorumOverUDP(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			const n, f, beats, seed = 4, 1, 80, 41
			const forged = uint64(1) << 40
			tr, err := net.NewLoopbackUDP(n, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			atk, err := tr.Endpoint(3)
			if err != nil {
				t.Fatal(err)
			}
			defer atk.Close()

			rec := newChaosRecorder()
			nodes := make([]*noderuntime.Node, n-f)
			for id := range nodes {
				ep, err := tr.Endpoint(id)
				if err != nil {
					t.Fatal(err)
				}
				defer ep.Close()
				inst := core.NewClockSyncProtocolLayout(16, coin.FMFactory{}, l)(proto.Env{N: n, F: f, ID: id, Rng: sim.NodeRng(seed, id)})
				inst.(proto.Scrambler).Scramble(sim.ScrambleRng(seed + int64(id)))
				nodes[id] = noderuntime.NewNode(noderuntime.NodeConfig{
					N: n, F: f, ID: id, Mode: noderuntime.Real, Endpoint: ep,
					Protocols: []proto.Protocol{inst},
					OnBeat:    func(_ int, beat uint64, p proto.Protocol) { rec.onBeat(id, beat, p) },
					MaxBeats:  beats, Timing: chaosTiming, RetrySeed: seed,
				})
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					for claim := 1; claim < n; claim++ {
						frame := wire.AppendFrame(nil, wire.Frame{Kind: wire.KindBatch, From: claim, Beat: forged, DeliveryBeat: forged})
						for to := range nodes {
							atk.Send(to, frame)
						}
					}
					select {
					case <-stop:
						return
					case <-time.After(5 * time.Millisecond):
					}
				}
			}()
			time.Sleep(10 * time.Millisecond) // the first forgeries are waiting at beat 0
			for _, nd := range nodes {
				nd.Start()
			}
			done := make(chan struct{})
			go func() {
				for _, nd := range nodes {
					nd.Wait()
				}
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				for _, nd := range nodes {
					nd.Stop()
				}
				<-done
			}
			close(stop)
			wg.Wait()

			for id, nd := range nodes {
				if b := nd.Beat(); b >= 1<<20 || b != beats {
					t.Errorf("node %d ended at beat %d, want %d (far below 2^20)", id, b, beats)
				}
			}
			if got := rec.agreeStreak(beats, n-f); got < 8 {
				t.Fatalf("honest agreement streak %d beats, want >= 8", got)
			}
		})
	}
}
