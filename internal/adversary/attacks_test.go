package adversary_test

import (
	"math/rand"
	"testing"

	"ssbyzclock/internal/adversary"
	"ssbyzclock/internal/baseline"
	"ssbyzclock/internal/field"
	"ssbyzclock/internal/gvss"
	"ssbyzclock/internal/proto"
)

func testCtx(n, f int) *adversary.Context {
	faulty := make([]int, f)
	for i := range faulty {
		faulty[i] = n - f + i
	}
	return &adversary.Context{N: n, F: f, Faulty: faulty, Rng: rand.New(rand.NewSource(1))}
}

func TestKingSpoilerEquivocatesKingValues(t *testing.T) {
	ctx := testCtx(4, 1)
	sp := &adversary.KingSpoiler{Ctx: ctx}
	composed := []adversary.Sends{{
		From: 3,
		Out: []proto.Send{
			{To: proto.Broadcast, Msg: baseline.KingMsg{V: 5}},
			{To: proto.Broadcast, Msg: baseline.PhaseProposeMsg{V: 2}},
		},
	}}
	out := sp.Act(0, composed, nil)
	if len(out) != 1 {
		t.Fatalf("sends for %d faulty nodes", len(out))
	}
	kingVals := map[uint64]bool{}
	for _, s := range out[0].Out {
		switch m := s.Msg.(type) {
		case baseline.KingMsg:
			kingVals[m.V] = true
		case baseline.PhaseProposeMsg:
			if !m.Bot {
				t.Fatal("spoiler leaked a real proposal")
			}
		}
	}
	if len(kingVals) < 4 {
		t.Fatalf("king values not equivocated: %v", kingVals)
	}
}

func TestRecoverCorruptorOnlyTouchesRecoverMsgs(t *testing.T) {
	ctx := testCtx(4, 1)
	rc := &adversary.RecoverCorruptor{Ctx: ctx}
	orig := &gvss.RecoverMsg{
		Shares: []field.Elem{1, 2, 3, 4},
		HasRow: []bool{true, false, false, true},
	}
	composed := []adversary.Sends{{
		From: 3,
		Out: []proto.Send{
			{To: proto.Broadcast, Msg: orig},
			{To: 1, Msg: &gvss.VoteMsg{OK: []bool{true}}},
		},
	}}
	out := rc.Act(0, composed, nil)
	sawVote, sawCorrupt := false, false
	for _, s := range out[0].Out {
		switch m := s.Msg.(type) {
		case *gvss.VoteMsg:
			sawVote = true
		case *gvss.RecoverMsg:
			// Every entry must be claimed and at least one differs from
			// the original (random garbage).
			for i := range m.Shares {
				if !m.HasRow[i] {
					t.Fatal("corruptor left a hole in HasRow")
				}
				if m.Shares[i] != orig.Shares[i] {
					sawCorrupt = true
				}
			}
		}
	}
	if !sawVote || !sawCorrupt {
		t.Fatalf("vote preserved=%v, shares corrupted=%v", sawVote, sawCorrupt)
	}
}

func TestChainAppliesAllStages(t *testing.T) {
	chain := adversary.Chain{Advs: []adversary.Adversary{
		adversary.Silent{}, // first stage drops everything
		adversary.Passive{},
	}}
	composed := []adversary.Sends{{From: 2, Out: []proto.Send{{To: 0, Msg: baseline.ClockMsg{V: 1}}}}}
	if out := chain.Act(0, composed, nil); len(out) != 0 {
		t.Fatalf("chain did not apply the silencing stage: %v", out)
	}
}

func TestOracleSplitterForwardsNonClockTraffic(t *testing.T) {
	ctx := testCtx(4, 1)
	os := &adversary.OracleSplitter{Ctx: ctx, BitOracle: func() byte { return 1 }}
	composed := []adversary.Sends{{
		From: 3,
		Out:  []proto.Send{{To: 2, Msg: baseline.ClockMsg{V: 9}}},
	}}
	out := os.Act(0, composed, nil)
	if len(out) != 1 || len(out[0].Out) != 1 {
		t.Fatalf("unexpected shape: %v", out)
	}
	if m, ok := out[0].Out[0].Msg.(baseline.ClockMsg); !ok || m.V != 9 {
		t.Fatalf("non-clock traffic rewritten: %#v", out[0].Out[0].Msg)
	}
}

func TestContextIsFaulty(t *testing.T) {
	ctx := testCtx(5, 2)
	if ctx.IsFaulty(0) || !ctx.IsFaulty(3) || !ctx.IsFaulty(4) {
		t.Fatal("IsFaulty wrong")
	}
}
