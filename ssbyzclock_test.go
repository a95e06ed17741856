package ssbyzclock_test

import (
	"fmt"
	"testing"

	ssbyzclock "ssbyzclock"
	"ssbyzclock/internal/adversary"
	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/sim"
)

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  ssbyzclock.Config
		ok   bool
	}{
		{"valid", ssbyzclock.Config{N: 4, F: 1}, true},
		{"no-faults", ssbyzclock.Config{N: 1, F: 0}, true},
		{"zero-n", ssbyzclock.Config{N: 0}, false},
		{"f-too-big", ssbyzclock.Config{N: 3, F: 1}, false},
		{"negative-f", ssbyzclock.Config{N: 4, F: -1}, false},
		{"boundary-ok", ssbyzclock.Config{N: 7, F: 2}, true},
		{"boundary-bad", ssbyzclock.Config{N: 6, F: 2}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ssbyzclock.NewNode(c.cfg, 0)
			if (err == nil) != c.ok {
				t.Fatalf("cfg %+v: err=%v, want ok=%v", c.cfg, err, c.ok)
			}
		})
	}
}

func TestNewNodeIDRange(t *testing.T) {
	cfg := ssbyzclock.Config{N: 4, F: 1}
	if _, err := ssbyzclock.NewNode(cfg, -1); err == nil {
		t.Fatal("accepted negative id")
	}
	if _, err := ssbyzclock.NewNode(cfg, 4); err == nil {
		t.Fatal("accepted id == N")
	}
	n, err := ssbyzclock.NewNode(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if n.ID() != 3 {
		t.Fatalf("ID() = %d", n.ID())
	}
}

// TestManualTransport drives Nodes over a hand-rolled transport, the way
// a downstream user would: BeginBeat, exchange bytes, EndBeat.
func TestManualTransport(t *testing.T) {
	cfg := ssbyzclock.Config{N: 4, F: 0, K: 8, Coin: ssbyzclock.CoinFM, Seed: 42}
	nodes := make([]*ssbyzclock.Node, cfg.N)
	for i := range nodes {
		n, err := ssbyzclock.NewNode(cfg, i)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	streak := 0
	var prev uint64
	havePrev := false
	for beat := uint64(0); beat < 200 && streak < 16; beat++ {
		inboxes := make([][]ssbyzclock.InMessage, cfg.N)
		for id, n := range nodes {
			outs, err := n.BeginBeat(beat)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range outs {
				if o.To == ssbyzclock.BroadcastTo {
					for to := range inboxes {
						inboxes[to] = append(inboxes[to], ssbyzclock.InMessage{From: id, Data: o.Data})
					}
				} else {
					inboxes[o.To] = append(inboxes[o.To], ssbyzclock.InMessage{From: id, Data: o.Data})
				}
			}
		}
		for id, n := range nodes {
			n.EndBeat(beat, inboxes[id])
		}
		v0, _ := nodes[0].Clock()
		agree := true
		for _, n := range nodes {
			v, ok := n.Clock()
			if !ok || v != v0 {
				agree = false
			}
		}
		if agree && (!havePrev || v0 == (prev+1)%cfg.K) {
			streak++
		} else {
			streak = 0
		}
		prev, havePrev = v0, agree
	}
	if streak < 16 {
		t.Fatal("manual transport cluster did not synchronize")
	}
}

func TestClusterEndToEnd(t *testing.T) {
	for _, adv := range []ssbyzclock.AdversaryKind{
		ssbyzclock.AdvPassive, ssbyzclock.AdvSilent, ssbyzclock.AdvSplitter,
	} {
		t.Run(adv.String(), func(t *testing.T) {
			c, err := ssbyzclock.NewCluster(
				ssbyzclock.Config{N: 4, F: 1, K: 16, Coin: ssbyzclock.CoinRabin, Seed: 7},
				ssbyzclock.ClusterOptions{Adversary: adv, ScrambleStart: true},
			)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			_, ok, err := c.RunUntilSynced(800, 16)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("no sync under %s", adv)
			}
		})
	}
}

func TestClusterTransientFaultRecovery(t *testing.T) {
	c, err := ssbyzclock.NewCluster(
		ssbyzclock.Config{N: 4, F: 1, K: 16, Coin: ssbyzclock.CoinFM, Seed: 11},
		ssbyzclock.ClusterOptions{Adversary: ssbyzclock.AdvSilent, ScrambleStart: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok, err := c.RunUntilSynced(800, 16); err != nil || !ok {
		t.Fatalf("initial sync failed: ok=%v err=%v", ok, err)
	}
	c.ScrambleHonest(123)
	if _, ok, err := c.RunUntilSynced(800, 16); err != nil || !ok {
		t.Fatalf("re-sync after transient fault failed: ok=%v err=%v", ok, err)
	}
}

func TestClusterRejectsBadConfig(t *testing.T) {
	for _, cfg := range []ssbyzclock.Config{
		{N: 0},
		{N: 3, F: 3},
		{N: 6, F: 2},
		{N: 4, F: 1, Layout: ssbyzclock.Layout(9)},
	} {
		if _, err := ssbyzclock.NewCluster(cfg, ssbyzclock.ClusterOptions{}); err == nil {
			t.Fatalf("accepted %+v", cfg)
		}
	}
}

func TestClusterCloseIdempotent(t *testing.T) {
	c, err := ssbyzclock.NewCluster(ssbyzclock.Config{N: 4, F: 0, Coin: ssbyzclock.CoinLocal, Seed: 9}, ssbyzclock.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 5; b++ {
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	c.Close() // must not panic
	if _, err := c.Step(); err == nil {
		t.Fatal("step after close succeeded")
	}
}

// TestClusterIsTheEngine pins what the public Cluster is: the lockstep
// engine. Built from the same configuration, Cluster.Step and a
// sim.Engine report the same honest clocks beat for beat, so a seed
// names the same execution here as in cmd/clocksim, the sweep and a
// Lockstep networked cluster (whose own differential harness holds it
// to the engine).
func TestClusterIsTheEngine(t *testing.T) {
	const n, f, k, beats = 7, 2, 16, 200
	advs := []struct {
		kind  ssbyzclock.AdversaryKind
		build func(ctx *adversary.Context) adversary.Adversary
	}{
		{ssbyzclock.AdvPassive, nil},
		{ssbyzclock.AdvSplitter, func(ctx *adversary.Context) adversary.Adversary { return &adversary.ClockSplitter{Ctx: ctx} }},
	}
	for _, seed := range []int64{5, 1234} {
		for _, adv := range advs {
			t.Run(fmt.Sprintf("seed%d/%s", seed, adv.kind), func(t *testing.T) {
				c, err := ssbyzclock.NewCluster(
					ssbyzclock.Config{N: n, F: f, K: k, Coin: ssbyzclock.CoinFM, Seed: seed},
					ssbyzclock.ClusterOptions{Adversary: adv.kind, ScrambleStart: true},
				)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				eng := sim.New(sim.Config{N: n, F: f, Seed: seed, NewAdversary: adv.build, ScrambleStart: true},
					core.NewClockSyncProtocolLayout(k, coin.FMFactory{}, core.LayoutShared))
				for b := 0; b < beats; b++ {
					res, err := c.Step()
					if err != nil {
						t.Fatal(err)
					}
					eng.Step()
					want := sim.ReadClocks(eng)
					if res.Beat != uint64(b) || len(res.Clocks) != n {
						t.Fatalf("beat %d: result beat %d with %d clocks", b, res.Beat, len(res.Clocks))
					}
					for i, v := range want.Values {
						if !want.OK[i] || res.Clocks[i] != v {
							t.Fatalf("beat %d node %d: cluster clock %d, engine (%d, %v)", b, i, res.Clocks[i], v, want.OK[i])
						}
					}
					if wv, ws := want.Synced(); res.Synced != ws || res.Value != wv {
						t.Fatalf("beat %d: cluster synced (%d, %v), engine (%d, %v)", b, res.Value, res.Synced, wv, ws)
					}
				}
			})
		}
	}
}

func TestKindStrings(t *testing.T) {
	if ssbyzclock.CoinFM.String() != "fm" || ssbyzclock.CoinLocal.String() != "local" {
		t.Fatal("coin kind strings")
	}
	if ssbyzclock.AdvSplitter.String() != "splitter" {
		t.Fatal("adversary kind strings")
	}
}
