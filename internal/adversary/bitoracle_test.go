package adversary_test

import (
	"math/rand"
	"testing"

	"ssbyzclock/internal/adversary"
	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/sim"
	"ssbyzclock/internal/sscoin"
)

// fakeBitNode exposes the RandBit surface the oracle reads.
type fakeBitNode struct{ bit byte }

func (f *fakeBitNode) Compose(uint64) []proto.Send  { return nil }
func (f *fakeBitNode) Deliver(uint64, []proto.Recv) {}
func (f *fakeBitNode) RandBit() byte                { return f.bit }

// TestBitOracleReadsFaultyCopy: the self-contained oracle consults the
// faulty node's own honest-copy instance via Context.FaultyNode — no
// engine closure — and degrades to bit 0 when there is none.
func TestBitOracleReadsFaultyCopy(t *testing.T) {
	node := &fakeBitNode{bit: 1}
	ctx := &adversary.Context{
		N: 4, F: 1, Faulty: []int{3}, Rng: rand.New(rand.NewSource(1)),
		FaultyNode: func(id int) proto.Protocol {
			if id == 3 {
				return node
			}
			return nil
		},
	}
	// Drive the phase-3 variant against a bit vote: with oracle bit 1 the
	// low half is steered to 0 and the high half to 1 (see Phase3Splitter).
	a := adversary.NewBitOraclePhase3(ctx)
	composed := []adversary.Sends{{
		From: 3,
		Out:  []proto.Send{{To: proto.Broadcast, Msg: core.BitMsg{B: 0}}},
	}}
	got := map[int]byte{}
	for _, s := range a.Act(0, composed, nil)[0].Out {
		if m, ok := s.Msg.(core.BitMsg); ok {
			got[s.To] = m.B
		}
	}
	if got[0] != 0 || got[3] != 1 {
		t.Fatalf("oracle bit 1 not steering: low=%d high=%d", got[0], got[3])
	}
	// Without a faulty copy the oracle reports 0 and the steering flips.
	ctx.FaultyNode = nil
	got = map[int]byte{}
	for _, s := range a.Act(0, composed, nil)[0].Out {
		if m, ok := s.Msg.(core.BitMsg); ok {
			got[s.To] = m.B
		}
	}
	if got[0] != 1 || got[3] != 0 {
		t.Fatalf("nil-oracle fallback not steering to 0: low=%d high=%d", got[0], got[3])
	}
}

// TestBitOracleAgreesWithHonestOracle: once the coin has converged the
// faulty copy's bit IS the common bit, so the self-contained oracle
// reports exactly what the engine-closure oracle (honest node 0) would.
func TestBitOracleAgreesWithHonestOracle(t *testing.T) {
	e := sim.New(sim.Config{N: 7, F: 2, Seed: 5},
		func(env proto.Env) proto.Protocol { return sscoin.New(env, coin.FMFactory{}) })
	e.Run(coin.FMRounds + 1) // fill the pipeline
	agree := 0
	const beats = 24
	for i := 0; i < beats; i++ {
		e.Step()
		honest := e.Node(0).(proto.BitReader).Bit()
		faulty := e.Node(6).(proto.BitReader).Bit()
		if honest == faulty {
			agree++
		}
	}
	if agree < beats*3/4 {
		t.Fatalf("faulty-copy bit agreed with honest bit only %d/%d beats", agree, beats)
	}
}

// TestBitOracleStackedWithinBound: the strongest serializable attack
// (bit-oracle splitter + grade splitter + recovery corruptor) must not
// defeat ss-Byz-Clock-Sync within f < n/3 — the E7 claim, now provable
// from a sweep grid.
func TestBitOracleStackedWithinBound(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			cfg := sim.Config{
				N: 7, F: 2, Seed: 9, ScrambleStart: true,
				NewAdversary: func(ctx *adversary.Context) adversary.Adversary {
					return adversary.Chain{Advs: []adversary.Adversary{
						adversary.NewBitOracleSplitter(ctx),
						&adversary.GradeSplitter{Ctx: ctx},
						&adversary.RecoverCorruptor{Ctx: ctx},
					}}
				},
			}
			e := sim.New(cfg, core.NewClockSyncProtocolLayout(16, coin.FMFactory{}, l))
			if res := sim.MeasureConvergence(e, 16, 2000, 12); !res.Converged {
				t.Fatal("clock-sync failed to converge under the bit-oracle stacked attack within the bound")
			}
		})
	}
}
