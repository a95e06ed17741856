// The race detector's instrumentation allocates, so this allocation
// gate runs only without it (as multi's steady-allocs gate does).
//go:build !race

package noderuntime

import (
	"testing"

	"ssbyzclock/internal/obs"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/wire"
)

// TestPullAllocationFree fires both pull rules over and over, with the
// counters registered and with a nil registry: resending a kept frame
// and counting it allocates nothing.
func TestPullAllocationFree(t *testing.T) {
	for name, met := range map[string]*NodeMetrics{
		"registry":     NewNodeMetrics(obs.NewRegistry(), 0),
		"nil registry": NewNodeMetrics(nil, 0),
	} {
		ep := &sendCounter{to: make([]int, 4)}
		nd := NewNode(NodeConfig{N: 4, F: 1, Mode: Real, Endpoint: ep, Protocols: []proto.Protocol{&recProto{}}, Metrics: met})
		nd.sendBeat(0)
		nd.sendBeat(1)
		nd.cur = 1
		ahead, behind := wire.Frame{From: 3, Beat: 2}, wire.Frame{From: 3, Beat: 0}
		allocs := testing.AllocsPerRun(200, func() {
			nd.pulled[3], nd.answered[3] = 0, 0
			nd.pull(ahead)
			nd.pull(behind)
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per pull and answer, want 0", name, allocs)
		}
		if ep.to[3] < 2*200 {
			t.Errorf("%s: %d frames resent, want both rules to fire every run", name, ep.to[3])
		}
	}
}
