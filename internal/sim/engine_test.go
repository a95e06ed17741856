package sim_test

import (
	"reflect"
	"testing"

	"ssbyzclock/internal/adversary"
	"ssbyzclock/internal/baseline"
	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/sim"
)

// That identical seeds replay bit for bit, at every worker count, is
// pinned by the differential harness (internal/difftest).

func TestSeedChangesRun(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			run := func(seed int64) []uint64 {
				e := sim.New(sim.Config{N: 4, F: 1, Seed: seed, ScrambleStart: true},
					core.NewTwoClockProtocolLayout(coin.FMFactory{}, l))
				e.Run(10)
				return sim.ReadClocks(e).Values
			}
			same := 0
			for s := int64(0); s < 8; s++ {
				if reflect.DeepEqual(run(s), run(s+100)) {
					same++
				}
			}
			// Binary clocks can collide; all eight colliding would mean the seed
			// is ignored.
			if same == 8 {
				t.Fatal("seed appears to have no effect")
			}
		})
	}
}

func TestIdentityForgeryBlocked(t *testing.T) {
	// An adversary claiming honest sender ids must have those sends
	// dropped (Definition 2.2).
	forger := func(ctx *adversary.Context) adversary.Adversary {
		return forgeAdv{ctx: ctx}
	}
	e := sim.New(sim.Config{N: 4, F: 1, Seed: 1, NewAdversary: forger},
		baseline.NewNaiveProtocol(1<<20))
	e.Run(20)
	// The naive protocol believes any max; if the forged huge values got
	// through with honest sender ids they would have been counted and
	// clocks would exceed 1000 within 20 beats.
	st := sim.ReadClocks(e)
	for i, v := range st.Values {
		if v > 1000 {
			t.Fatalf("node %d clock %d: forged message was accepted", i, v)
		}
	}
}

type forgeAdv struct {
	ctx *adversary.Context
}

func (a forgeAdv) Act(_ uint64, composed []adversary.Sends, _ []adversary.Intercept) []adversary.Sends {
	// Claim to be honest node 0 and send a huge clock value.
	return []adversary.Sends{{
		From: 0, // not a faulty id -> must be dropped by the engine
		Out:  []proto.Send{{To: proto.Broadcast, Msg: baseline.ClockMsg{V: 1 << 19}}},
	}}
}

func TestExplicitFaultyIDs(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			e := sim.New(sim.Config{N: 4, F: 2, Seed: 1, Faulty: []int{0, 2}},
				core.NewTwoClockProtocolLayout(coin.LocalFactory{}, l))
			if !e.IsFaulty(0) || e.IsFaulty(1) || !e.IsFaulty(2) || e.IsFaulty(3) {
				t.Fatal("faulty id assignment wrong")
			}
			if got := e.HonestIDs(); !reflect.DeepEqual(got, []int{1, 3}) {
				t.Fatalf("honest ids = %v", got)
			}
		})
	}
}

func TestBadConfigPanics(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			cases := []sim.Config{
				{N: 0, F: 0},
				{N: 3, F: 3},
				{N: 3, F: -1},
				{N: 3, F: 1, Faulty: []int{5}},
				{N: 3, F: 2, Faulty: []int{1}},
			}
			for i, cfg := range cases {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("case %d: no panic for %+v", i, cfg)
						}
					}()
					sim.New(cfg, core.NewTwoClockProtocolLayout(coin.LocalFactory{}, l))
				}()
			}
		})
	}
}

func TestMessageMetrics(t *testing.T) {
	e := sim.New(sim.Config{N: 4, F: 1, Seed: 1, CountBytes: true},
		baseline.NewDolevWelchProtocol(8))
	e.Run(10)
	// 3 honest nodes broadcasting 1 message each to 4 recipients for 10
	// beats = 120 honest deliveries; the faulty node's passive copy adds
	// 40 faulty deliveries.
	if e.HonestMsgs != 120 {
		t.Fatalf("HonestMsgs = %d, want 120", e.HonestMsgs)
	}
	if e.FaultyMsgs != 40 {
		t.Fatalf("FaultyMsgs = %d, want 40", e.FaultyMsgs)
	}
	if e.HonestBytes == 0 {
		t.Fatal("HonestBytes not tallied despite CountBytes")
	}
}

func TestPhantomsDeliveredOnce(t *testing.T) {
	e := sim.New(sim.Config{N: 4, F: 0, Seed: 1},
		baseline.NewNaiveProtocol(1<<20))
	e.Run(3)
	before := sim.ReadClocks(e).Values[0]
	e.InjectPhantoms([]proto.Message{baseline.ClockMsg{V: 5000}})
	e.Step()
	after := sim.ReadClocks(e).Values[0]
	if after != 5001 {
		t.Fatalf("phantom not delivered: clock %d -> %d", before, after)
	}
	// The phantom must not repeat: the naive max rule would otherwise
	// keep clocks pinned above 5001.
	e.Step()
	if v := sim.ReadClocks(e).Values[0]; v != 5002 {
		t.Fatalf("phantom re-delivered or lost: clock = %d", v)
	}
}

// keeper broadcasts one message a beat and keeps its Deliver inbox past
// the call, which the proto.Protocol contract forbids.
type keeper struct {
	live int // messages its last Deliver read
	kept []proto.Recv
}

func (k *keeper) Compose(uint64) []proto.Send {
	return []proto.Send{{To: proto.Broadcast, Msg: core.BitMsg{B: 1}}}
}

func (k *keeper) Deliver(_ uint64, inbox []proto.Recv) {
	k.live = 0
	for _, r := range inbox {
		if r.Msg != nil {
			k.live++
		}
	}
	k.kept = inbox
}

// TestKeptEngineInboxReadsPoison: the engine's inboxes are leases from
// the nodes' pools, ended by the engine's Recycle after the Deliver
// phase, so under PoolPoison a kept inbox reads poison (entries with a
// nil Msg) once the beat is over — while Deliver itself reads every
// message of the beat.
func TestKeptEngineInboxReadsPoison(t *testing.T) {
	var nodes []*keeper
	e := sim.New(sim.Config{N: 4, F: 1, Seed: 1, Pool: sim.PoolPoison}, func(proto.Env) proto.Protocol {
		k := &keeper{}
		nodes = append(nodes, k)
		return k
	})
	e.Step()
	for i, k := range nodes {
		if k.live != 4 || len(k.kept) != 4 {
			t.Fatalf("node %d: Deliver read %d live messages of %d, want 4 of 4", i, k.live, len(k.kept))
		}
		for _, r := range k.kept {
			if r.Msg != nil {
				t.Fatalf("node %d's kept inbox still reads %v after the beat", i, r.Msg)
			}
		}
	}
}

func TestMeasureConvergenceDetectsClosureViolations(t *testing.T) {
	// The naive protocol with a max-jumping adversary syncs on value but
	// violates the +1 pattern; MeasureConvergence must not call that
	// converged.
	jumper := func(ctx *adversary.Context) adversary.Adversary {
		return jumpAdv{ctx: ctx}
	}
	e := sim.New(sim.Config{N: 4, F: 1, Seed: 1, NewAdversary: jumper, ScrambleStart: true},
		baseline.NewNaiveProtocol(1<<20))
	res := sim.MeasureConvergence(e, 1<<20, 200, 10)
	if res.Converged {
		t.Fatal("value-synced-but-jumping run declared converged")
	}
}

type jumpAdv struct {
	ctx *adversary.Context
}

func (a jumpAdv) Act(_ uint64, composed []adversary.Sends, _ []adversary.Intercept) []adversary.Sends {
	out := make([]adversary.Sends, 0, len(composed))
	for _, s := range composed {
		out = append(out, adversary.Sends{From: s.From, Out: adversary.RewriteLeaves(s.Out,
			func(_ adversary.Path, leaf proto.Message) proto.Message {
				if m, ok := leaf.(baseline.ClockMsg); ok {
					return baseline.ClockMsg{V: (m.V + 7) % (1 << 20)}
				}
				return leaf
			})})
	}
	return out
}
