package sweep

// Differential harness for the adversary boundary's output shape.
// adversary.PerRecipient passes forwarded copies on as the original
// send (a whole broadcast when every copy is forwarded) and re-wraps only
// rewritten ones; it used to expand every send into n freshly wrapped
// unicasts. Receivers must not be able to tell. Every registry adversary
// X — plus the oracle splitters with a fixed oracle and KingSpoiler over
// PhaseKing — runs twice from one seed, as X and as X followed by
// expandAll (the old shape), and every node's inbox (wire-encoded), every
// honest clock and rand bit, and both message counters must agree beat
// for beat, on ideal links and under delay+dup+reorder.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ssbyzclock/internal/adversary"
	"ssbyzclock/internal/baseline"
	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/faultnet"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/sim"
	"ssbyzclock/internal/wire"
)

// expandAll rebuilds the pre-Forward output shape of its inner
// adversary: every in-range copy of every send as its own unicast,
// re-wrapped in fresh value-form envelopes.
type expandAll struct {
	inner adversary.Adversary
	n     int
}

func (x expandAll) Act(beat uint64, composed []adversary.Sends, visible []adversary.Intercept) []adversary.Sends {
	out := x.inner.Act(beat, composed, visible)
	expanded := make([]adversary.Sends, len(out))
	for i, s := range out {
		expanded[i].From = s.From
		for _, snd := range s.Out {
			path, leaf := adversary.Unwrap(snd.Msg)
			for to := 0; to < x.n; to++ {
				if snd.To == to || snd.To == proto.Broadcast {
					expanded[i].Out = append(expanded[i].Out, proto.Send{To: to, Msg: adversary.Wrap(path, leaf)})
				}
			}
		}
	}
	return expanded
}

// tapNode digests every inbox its node is handed — each message's sender
// and wire encoding, in order — and is otherwise the node: it passes on
// Scramble, EndBeat and the bit the oracle adversaries read.
type tapNode struct {
	proto.Protocol
	digests []uint64 // one per delivered beat
}

func (t *tapNode) Deliver(beat uint64, inbox []proto.Recv) {
	h := fnv.New64a()
	var buf []byte
	for _, r := range inbox {
		buf = binary.AppendVarint(buf[:0], int64(r.From))
		buf, _ = wire.AppendTo(buf, r.Msg) // an unencodable prefix still digests
		h.Write(buf)
	}
	t.digests = append(t.digests, h.Sum64())
	t.Protocol.Deliver(beat, inbox)
}

func (t *tapNode) Scramble(rng *rand.Rand) {
	if s, ok := t.Protocol.(proto.Scrambler); ok {
		s.Scramble(rng)
	}
}

func (t *tapNode) EndBeat() {
	if e, ok := t.Protocol.(proto.BeatEnder); ok {
		e.EndBeat()
	}
}

func (t *tapNode) RandBit() byte {
	if r, ok := t.Protocol.(interface{ RandBit() byte }); ok {
		return r.RandBit()
	}
	return 0
}

// boundaryBeat is everything a run exposes after one beat.
type boundaryBeat struct {
	inboxes        []uint64 // per node, faulty copies included
	clocks         []uint64 // per honest node; ^0 for ⊥
	rands          []byte   // per honest node (ClockSync stacks)
	honest, faulty uint64   // cumulative message counters
}

func runBoundary(n, f int, seed int64, factory sim.NodeFactory, links faultnet.Schedule,
	mk func(*adversary.Context) adversary.Adversary, expand bool, beats int) []boundaryBeat {
	taps := make([]*tapNode, 0, n)
	cfg := sim.Config{
		N: n, F: f, Seed: seed, ScrambleStart: true, Links: links,
		NewAdversary: func(ctx *adversary.Context) adversary.Adversary {
			var a adversary.Adversary = adversary.Passive{}
			if mk != nil {
				a = mk(ctx)
			}
			if expand {
				a = expandAll{inner: a, n: n}
			}
			return a
		},
	}
	e := sim.New(cfg, func(env proto.Env) proto.Protocol {
		t := &tapNode{Protocol: factory(env)}
		taps = append(taps, t)
		return t
	})
	trace := make([]boundaryBeat, beats)
	for b := range trace {
		e.Step()
		bt := &trace[b]
		for _, t := range taps {
			bt.inboxes = append(bt.inboxes, t.digests[b])
		}
		for _, id := range e.HonestIDs() {
			v, ok := uint64(0), false
			if cr, isCR := taps[id].Protocol.(proto.ClockReader); isCR {
				v, ok = cr.Clock()
			}
			if !ok {
				v = ^uint64(0)
			}
			bt.clocks = append(bt.clocks, v)
			if cs, isCS := taps[id].Protocol.(*core.ClockSync); isCS {
				bt.rands = append(bt.rands, cs.RandBit())
			}
		}
		bt.honest, bt.faulty = e.HonestMsgs, e.FaultyMsgs
	}
	return trace
}

func TestForwardMatchesExpandedOutput(t *testing.T) {
	fixedBit := func() byte { return 1 }
	type advCase struct {
		name    string
		mk      func(*adversary.Context) adversary.Adversary
		phaseKg bool // runs over PhaseKing instead of ClockSync
	}
	var advs []advCase
	names := make([]string, 0, len(adversaryRegistry))
	for name := range adversaryRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		advs = append(advs, advCase{name: name, mk: adversaryRegistry[name]})
	}
	advs = append(advs,
		advCase{name: "phase3splitter", mk: func(ctx *adversary.Context) adversary.Adversary {
			return &adversary.Phase3Splitter{Ctx: ctx, BitOracle: fixedBit}
		}},
		advCase{name: "oraclesplitter", mk: func(ctx *adversary.Context) adversary.Adversary {
			return &adversary.OracleSplitter{Ctx: ctx, BitOracle: fixedBit}
		}},
		advCase{name: "kingspoiler", phaseKg: true, mk: func(ctx *adversary.Context) adversary.Adversary {
			return &adversary.KingSpoiler{Ctx: ctx}
		}},
	)
	// A beat costs milliseconds at n=16, and the share- and
	// recovery-corrupting attacks make every honest node decode with
	// errors, so n=16 runs fewer beats (still past the FM pipeline fill).
	beatsFor := func(n int, adv string) int {
		switch {
		case n < 16:
			return 120
		case adv == "sharecorruptor" || adv == "recovercorruptor" || adv == "stacked" || adv == "bitoraclestacked":
			return 8
		}
		return 20
	}
	shapes := []struct {
		n      int
		layout core.Layout
	}{{4, core.LayoutShared}, {7, core.LayoutShared}, {7, core.LayoutPaper}, {16, core.LayoutShared}}
	for _, sh := range shapes {
		f := (sh.n - 1) / 3
		for _, linkName := range []string{"", "delay10+dup10+reorder"} {
			for _, adv := range advs {
				if adv.phaseKg && sh.layout != core.LayoutShared {
					continue // PhaseKing has no coin layout
				}
				label := fmt.Sprintf("n=%d/%s/links=%q/%s", sh.n, sh.layout, linkName, adv.name)
				t.Run(label, func(t *testing.T) {
					factory := core.NewClockSyncProtocolLayout(16, coin.FMFactory{}, sh.layout)
					if adv.phaseKg {
						factory = baseline.NewPhaseKingProtocol(16)
					}
					links := func() faultnet.Schedule {
						if linkName == "" {
							return nil
						}
						s, err := faultnet.Parse(linkName)
						if err != nil {
							t.Fatal(err)
						}
						s.Seed = 5
						return s
					}
					beats := beatsFor(sh.n, adv.name)
					want := runBoundary(sh.n, f, 5, factory, links(), adv.mk, true, beats)
					got := runBoundary(sh.n, f, 5, factory, links(), adv.mk, false, beats)
					for b := range want {
						if !reflect.DeepEqual(got[b], want[b]) {
							t.Fatalf("beat %d: forwarded %+v, expanded %+v", b, got[b], want[b])
						}
					}
				})
			}
		}
	}
}
