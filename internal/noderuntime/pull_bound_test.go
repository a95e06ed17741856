package noderuntime

import (
	"strconv"
	"testing"

	"ssbyzclock/internal/net"
	"ssbyzclock/internal/obs"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/wire"
)

// sendCounter is an endpoint that counts sends per destination and
// carries nothing.
type sendCounter struct {
	nullEndpoint
	to []int
}

func (e *sendCounter) Send(to int, _ []byte) error {
	e.to[to]++
	return nil
}

// TestPullBoundedPerPeerAndBeat floods a Real node, beat after beat,
// with frames from one peer stamped ahead (each a reason to pull) and a
// beat behind (each asking for an answer), many of each under distinct
// dedup keys. The peer must draw at most one pull and one answer per
// beat, one link-beat each, and nobody else anything; the pull counters
// must say so too.
func TestPullBoundedPerPeerAndBeat(t *testing.T) {
	const n, f, peer, beats, flood = 4, 1, 3, 6, 50
	ep := &sendCounter{to: make([]int, n)}
	reg := obs.NewRegistry()
	nd := NewNode(NodeConfig{
		N: n, F: f, ID: 0, Mode: Real, Endpoint: ep,
		Protocols: []proto.Protocol{&recProto{}},
		Metrics:   NewNodeMetrics(reg, 0),
	})
	for r := uint64(0); r < beats; r++ {
		nd.sendBeat(r)
		for to, c := range ep.to {
			if c != 1 {
				t.Fatalf("beat %d: %d frames to %d before the flood, want 1", r, c, to)
			}
		}
		clear(ep.to)
		for i := 0; i < flood; i++ {
			for _, b := range []uint64{r + 1, r + 2, r - 1} {
				if b > r+2 { // r-1 at beat 0
					continue
				}
				// Frames ahead are copies (Copy 1), which never complete
				// the peer's link-beat there: each later beat still finds
				// it missing, and pulls again.
				fr := wire.Frame{From: peer, Beat: b, DeliveryBeat: b, Seq: uint32(i), Copy: 1}
				if b < r {
					fr.Copy = 0 // the answer rule wants an original
				}
				nd.ingest(net.Packet{From: peer, Data: clockFrame(fr, 1)})
			}
		}
		want := []int{0, 0, 0, 2}
		if r == 0 {
			want[peer] = 1 // no previous beat to answer with
		}
		for to, c := range ep.to {
			if c != want[to] {
				t.Fatalf("beat %d: flood drew %d frames to %d, want %d (%v)", r, c, to, want[to], ep.to)
			}
		}
		clear(ep.to)
		nd.win.drop(r)
		nd.cur++
	}
	node := obs.Label{Key: "node", Value: strconv.Itoa(0)}
	if got := reg.Counter("ssbyz_node_pulls_total", "", node).Load(); got != beats {
		t.Fatalf("pulls counter %d, want one per beat (%d)", got, beats)
	}
	if got := reg.Counter("ssbyz_node_pull_answers_total", "", node).Load(); got != beats-1 {
		t.Fatalf("answers counter %d, want one per beat after the first (%d)", got, beats-1)
	}
}
