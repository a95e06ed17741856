// The race detector makes sync.Pool drop items at random, so the pooled
// paths allocate freely under it; the gate runs without it only.

//go:build !race

package ssbyzclock_test

import (
	"testing"

	ssbyzclock "ssbyzclock"
)

// TestNodeBeatSteadyAllocs bounds the allocations of one warm Node beat
// (BeginBeat, then EndBeat) at n=4, averaged over the nodes. The node's
// pool recycles the composed message structs and payloads; what remains
// is the public API's own surface — the OutMessage list, the inbox Recv
// list and, most of it, wire.Encode growing each fresh encoding.
// Readings on a 2-vCPU x86-64 Linux container: 56.2 allocations per
// node-beat when every message was allocated fresh, 49.2 with the pool;
// the limit is the pooled reading plus 10 %.
func TestNodeBeatSteadyAllocs(t *testing.T) {
	const limit = 54
	cfg := ssbyzclock.Config{N: 4, F: 1, K: 8, Coin: ssbyzclock.CoinFM, Seed: 7}
	nodes := make([]*ssbyzclock.Node, cfg.N)
	for i := range nodes {
		n, err := ssbyzclock.NewNode(cfg, i)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	inboxes := make([][]ssbyzclock.InMessage, cfg.N)
	var beat uint64
	step := func() {
		for i := range inboxes {
			inboxes[i] = inboxes[i][:0]
		}
		for id, n := range nodes {
			outs, err := n.BeginBeat(beat)
			if err != nil {
				panic(err)
			}
			for _, o := range outs {
				for to := range inboxes {
					if o.To == ssbyzclock.BroadcastTo || o.To == to {
						inboxes[to] = append(inboxes[to], ssbyzclock.InMessage{From: id, Data: o.Data})
					}
				}
			}
		}
		for id, n := range nodes {
			n.EndBeat(beat, inboxes[id])
		}
		beat++
	}
	for i := 0; i < 40; i++ {
		step()
	}
	perNodeBeat := testing.AllocsPerRun(40, step) / float64(cfg.N)
	t.Logf("%.1f allocations per warm node-beat (limit %d)", perNodeBeat, limit)
	if perNodeBeat > limit {
		t.Fatalf("%.1f allocations per warm node-beat exceeds %d", perNodeBeat, limit)
	}
}
