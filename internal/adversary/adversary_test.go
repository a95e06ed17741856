package adversary_test

import (
	"testing"

	"ssbyzclock/internal/adversary"
	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/sim"
	"ssbyzclock/internal/sscoin"
)

func TestUnwrapWrapRoundTrip(t *testing.T) {
	leaf := core.TwoClockMsg{V: 1}
	wrapped := proto.Envelope{Child: 3, Inner: proto.Envelope{Child: 0, Inner: proto.Envelope{Child: 7, Inner: leaf}}}
	path, got := adversary.Unwrap(wrapped)
	if got != leaf {
		t.Fatalf("unwrap leaf = %#v", got)
	}
	if path.String() != "[3 0 7]" {
		t.Fatalf("path = %s", path)
	}
	re := adversary.Wrap(path, leaf)
	if re != proto.Message(wrapped) {
		t.Fatalf("rewrap mismatch: %#v", re)
	}
}

// TestUnwrapPastTheCap: a Path holds eight tags; deeper chains come back
// with the rest of the chain as the leaf, so Wrap still round-trips, and
// pointer-form envelopes unwrap like value-form ones.
func TestUnwrapPastTheCap(t *testing.T) {
	var m proto.Message = core.TwoClockMsg{V: 1}
	for d := 0; d < 10; d++ {
		if d%2 == 0 {
			m = proto.Envelope{Child: uint8(d), Inner: m}
		} else {
			m = &proto.Envelope{Child: uint8(d), Inner: m}
		}
	}
	path, leaf := adversary.Unwrap(m)
	if path.String() != "[9 8 7 6 5 4 3 2]" {
		t.Fatalf("path = %s", path)
	}
	if _, ok := proto.AsEnvelope(leaf); !ok {
		t.Fatalf("leaf past the cap = %#v, want the remaining envelopes", leaf)
	}
	if got, want := wireOf(t, adversary.Wrap(path, leaf)), wireOf(t, m); got != want {
		t.Fatal("Wrap(Unwrap(m)) does not round-trip past the cap")
	}
}

func TestUnwrapPlainMessage(t *testing.T) {
	leaf := core.BitMsg{B: 1}
	path, got := adversary.Unwrap(leaf)
	if got != proto.Message(leaf) || path != (adversary.Path{}) || path.String() != "[]" {
		t.Fatalf("plain unwrap: path=%s leaf=%#v", path, got)
	}
}

func TestPerRecipientExpandsBroadcast(t *testing.T) {
	sends := []proto.Send{{To: proto.Broadcast, Msg: core.TwoClockMsg{V: 0}}}
	out := adversary.PerRecipient(4, sends, func(to int, _ adversary.Path, leaf proto.Message) proto.Message {
		return core.TwoClockMsg{V: uint8(to)}
	})
	if len(out) != 4 {
		t.Fatalf("want 4 sends, got %d", len(out))
	}
	for i, s := range out {
		if s.To != i || s.Msg.(core.TwoClockMsg).V != uint8(i) {
			t.Fatalf("send %d = %#v", i, s)
		}
	}
}

func TestRewriteLeavesDrops(t *testing.T) {
	sends := []proto.Send{
		{To: 1, Msg: core.TwoClockMsg{V: 0}},
		{To: 2, Msg: core.BitMsg{B: 1}},
	}
	out := adversary.RewriteLeaves(sends, func(_ adversary.Path, leaf proto.Message) proto.Message {
		if _, ok := leaf.(core.BitMsg); ok {
			return nil
		}
		return leaf
	})
	if len(out) != 1 || out[0].To != 1 {
		t.Fatalf("rewrite = %#v", out)
	}
}

// TestSplitterCannotStallCorrectVariant is half of the E6 ablation: the
// published algorithm converges under the splitter.
func TestSplitterCannotStallCorrectVariant(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		cfg := sim.Config{
			N: 4, F: 1, Seed: seed, ScrambleStart: true,
			NewAdversary: func(ctx *adversary.Context) adversary.Adversary {
				return &adversary.ClockSplitter{Ctx: ctx}
			},
		}
		e := sim.New(cfg, core.NewTwoClockProtocol(coin.RabinFactory{Seed: seed}))
		res := sim.MeasureConvergence(e, 2, 400, 12)
		if !res.Converged {
			t.Fatalf("seed %d: correct variant stalled by splitter", seed)
		}
	}
}

// TestSplitterCannotStallPreRandTwoClock documents an empirical finding
// of experiment E6 (stated in ClockSplitter's doc comment): at n = 3f+1
// even the sender-substitution variant of the 2-clock resists the
// splitter, because at most one value can ever reach the n-f quorum per
// beat (2(n-2f) > n-f), so the adversary cannot drive two honest groups
// to different defined clocks; the formal damage of Remark 3.1 manifests
// operationally in the k-clock phase structure instead (see the Phase3
// tests below).
func TestSplitterCannotStallPreRandTwoClock(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		cfg := sim.Config{
			N: 4, F: 1, Seed: seed, ScrambleStart: true,
			NewAdversary: func(ctx *adversary.Context) adversary.Adversary {
				return &adversary.ClockSplitter{Ctx: ctx}
			},
		}
		factory := func(env proto.Env) proto.Protocol {
			return core.NewTwoClockVariant(env, coin.RabinFactory{Seed: seed}, core.VariantPreRand)
		}
		e := sim.New(cfg, factory)
		res := sim.MeasureConvergence(e, 2, 400, 12)
		if !res.Converged {
			t.Fatalf("seed %d: PreRand two-clock stalled (analysis says it cannot be)", seed)
		}
	}
}

// TestPhase3SplitterCannotStallCorrectClockSync is half of the E6
// ablation: the published algorithm's phase-3 bit is committed after the
// bit votes, so the oracle-equipped splitter gains nothing (Lemma 8).
func TestPhase3SplitterCannotStallCorrectClockSync(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		res := runPhase3(t, seed, false, 1500)
		if !res.Converged {
			t.Fatalf("seed %d: correct clock-sync stalled by phase-3 splitter", seed)
		}
	}
}

// TestPhase3SplitterStaleVariantStillConverges is the other half, and
// records a genuine reproduction finding of experiment E6 (stated in
// ClockSplitter's doc comment): even with the stale bit the adversary
// can only *defer* convergence, because the fully synchronized state is
// absorbing — once all n-f honest nodes vote bit 1, no equivocation can
// starve any honest node of the quorum — so the loss of Lemma 8's
// independence costs a constant factor, not the expected-constant
// convergence itself, under this adversary class.
// The benchmark harness quantifies the factor; here we assert both
// variants converge.
func TestPhase3SplitterStaleVariantStillConverges(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		c := runPhase3(t, seed, false, 1500)
		s := runPhase3(t, seed, true, 1500)
		if !c.Converged {
			t.Fatalf("seed %d: correct variant stalled", seed)
		}
		if !s.Converged {
			t.Fatalf("seed %d: stale variant stalled outright (expected constant-factor penalty only)", seed)
		}
	}
}

func runPhase3(t *testing.T, seed int64, stale bool, maxBeats int) sim.ConvergenceResult {
	t.Helper()
	var eng *sim.Engine
	cfg := sim.Config{
		N: 7, F: 2, Seed: seed, ScrambleStart: true,
		NewAdversary: func(ctx *adversary.Context) adversary.Adversary {
			return &adversary.Phase3Splitter{Ctx: ctx, BitOracle: func() byte {
				return eng.Node(0).(*core.ClockSync).RandBit()
			}}
		},
	}
	factory := func(env proto.Env) proto.Protocol {
		return core.NewClockSyncStale(env, 16, coin.RabinFactory{Seed: seed}, stale)
	}
	eng = sim.New(cfg, factory)
	return sim.MeasureConvergence(eng, 16, maxBeats, 16)
}

// TestGradeSplitterCoinKeepsConstantAgreement: under vote/accept
// equivocation the FM coin must keep a constant agreement rate
// (Definition 2.6's E0/E1 with constant p0, p1).
func TestGradeSplitterCoinKeepsConstantAgreement(t *testing.T) {
	cfg := sim.Config{
		N: 7, F: 2, Seed: 3, ScrambleStart: true,
		NewAdversary: func(ctx *adversary.Context) adversary.Adversary {
			return &adversary.GradeSplitter{Ctx: ctx}
		},
	}
	e := sim.New(cfg, func(env proto.Env) proto.Protocol {
		return sscoin.New(env, coin.FMFactory{})
	})
	e.Run(coin.FMRounds + 1)
	agree, ones, beats := 0, 0, 120
	for i := 0; i < beats; i++ {
		e.Step()
		if b, ok := sim.ReadBits(e).Agreed(); ok {
			agree++
			if b == 1 {
				ones++
			}
		}
	}
	if agree < beats/3 {
		t.Fatalf("grade splitter crushed agreement: %d/%d", agree, beats)
	}
	if ones < agree/5 || ones > agree*4/5 {
		t.Fatalf("grade splitter biased the coin: %d ones of %d", ones, agree)
	}
}

// TestShareCorruptorContained: inconsistent dealings by Byzantine dealers
// must not break the 2-clock built on the FM coin.
func TestShareCorruptorContained(t *testing.T) {
	cfg := sim.Config{
		N: 7, F: 2, Seed: 4, ScrambleStart: true,
		NewAdversary: func(ctx *adversary.Context) adversary.Adversary {
			return &adversary.ShareCorruptor{Ctx: ctx}
		},
	}
	e := sim.New(cfg, core.NewTwoClockProtocol(coin.FMFactory{}))
	res := sim.MeasureConvergence(e, 2, 500, 12)
	if !res.Converged {
		t.Fatal("2-clock stalled under share corruption")
	}
}

// TestDelayerAndReplayer: omission faults and stale replays must not
// prevent convergence of the full clock-sync stack.
func TestDelayerAndReplayer(t *testing.T) {
	advs := map[string]func(ctx *adversary.Context) adversary.Adversary{
		"delayer":  func(ctx *adversary.Context) adversary.Adversary { return &adversary.Delayer{Ctx: ctx, Drop: 0.5} },
		"replayer": func(ctx *adversary.Context) adversary.Adversary { return &adversary.Replayer{Ctx: ctx} },
	}
	for name, mk := range advs {
		cfg := sim.Config{N: 7, F: 2, Seed: 5, NewAdversary: mk, ScrambleStart: true}
		e := sim.New(cfg, core.NewClockSyncProtocol(16, coin.RabinFactory{Seed: 9}))
		res := sim.MeasureConvergence(e, 16, 800, 16)
		if !res.Converged {
			t.Fatalf("%s: clock-sync stalled", name)
		}
	}
}
