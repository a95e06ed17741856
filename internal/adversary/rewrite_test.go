package adversary_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ssbyzclock/internal/adversary"
	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/sim"
	"ssbyzclock/internal/wire"
)

// wireOf is m's wire encoding: the one equality that holds across
// value-form and pointer-form envelopes and slice-holding leaves.
func wireOf(t testing.TB, m proto.Message) string {
	t.Helper()
	b, err := wire.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// deliveries expands sends the way the engine delivers them: per
// receiver, the wire encodings it gets, in order.
func deliveries(t testing.TB, n int, sends []proto.Send) [][]string {
	t.Helper()
	got := make([][]string, n)
	for _, s := range sends {
		for to := 0; to < n; to++ {
			if s.To == to || s.To == proto.Broadcast {
				got[to] = append(got[to], wireOf(t, s.Msg))
			}
		}
	}
	return got
}

func TestPerRecipientTable(t *testing.T) {
	const n = 4
	clock := &proto.Envelope{Child: 1, Inner: &proto.Envelope{Child: 0, Inner: core.TwoClockMsg{V: 0}}}
	bit := proto.Envelope{Child: 2, Inner: core.BitMsg{B: 1}}
	type call struct {
		to   int
		path string
	}
	cases := []struct {
		name  string
		sends []proto.Send
		fn    func(to int) proto.Message
		calls []call
		want  []proto.Send // compared by To and wire encoding
		same  bool         // the output is the input send itself
	}{{
		name:  "all-forward broadcast is the original send",
		sends: []proto.Send{{To: proto.Broadcast, Msg: clock}},
		fn:    func(int) proto.Message { return adversary.Forward },
		calls: []call{{0, "[1 0]"}, {1, "[1 0]"}, {2, "[1 0]"}, {3, "[1 0]"}},
		want:  []proto.Send{{To: proto.Broadcast, Msg: clock}},
		same:  true,
	}, {
		name:  "all-forward unicast is the original send",
		sends: []proto.Send{{To: 2, Msg: clock}},
		fn:    func(int) proto.Message { return adversary.Forward },
		calls: []call{{2, "[1 0]"}},
		want:  []proto.Send{{To: 2, Msg: clock}},
		same:  true,
	}, {
		name:  "mixed forward, rewrite and nil copies",
		sends: []proto.Send{{To: proto.Broadcast, Msg: clock}},
		fn: func(to int) proto.Message {
			switch to {
			case 1:
				return core.TwoClockMsg{V: 1}
			case 2:
				return nil
			}
			return adversary.Forward
		},
		calls: []call{{0, "[1 0]"}, {1, "[1 0]"}, {2, "[1 0]"}, {3, "[1 0]"}},
		want: []proto.Send{
			{To: 0, Msg: clock},
			{To: 1, Msg: proto.Envelope{Child: 1, Inner: proto.Envelope{Child: 0, Inner: core.TwoClockMsg{V: 1}}}},
			{To: 3, Msg: clock},
		},
	}, {
		name:  "out-of-range unicasts are dropped without a call",
		sends: []proto.Send{{To: n, Msg: bit}, {To: -2, Msg: bit}, {To: 1, Msg: bit}},
		fn:    func(int) proto.Message { return core.BitMsg{B: 0} },
		calls: []call{{1, "[2]"}},
		want:  []proto.Send{{To: 1, Msg: proto.Envelope{Child: 2, Inner: core.BitMsg{B: 0}}}},
	}, {
		name:  "calls run in send order, recipients ascending",
		sends: []proto.Send{{To: 3, Msg: bit}, {To: proto.Broadcast, Msg: clock}, {To: 0, Msg: core.BitMsg{}}},
		fn:    func(int) proto.Message { return nil },
		calls: []call{{3, "[2]"}, {0, "[1 0]"}, {1, "[1 0]"}, {2, "[1 0]"}, {3, "[1 0]"}, {0, "[]"}},
		want:  []proto.Send{},
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var calls []call
			out := adversary.PerRecipient(n, c.sends, func(to int, path adversary.Path, _ proto.Message) proto.Message {
				calls = append(calls, call{to, path.String()})
				return c.fn(to)
			})
			if !reflect.DeepEqual(calls, c.calls) {
				t.Fatalf("calls = %v, want %v", calls, c.calls)
			}
			if len(out) != len(c.want) {
				t.Fatalf("got %d sends, want %d: %v", len(out), len(c.want), out)
			}
			for i, s := range out {
				if s.To != c.want[i].To || wireOf(t, s.Msg) != wireOf(t, c.want[i].Msg) {
					t.Fatalf("send %d = %+v, want %+v", i, s, c.want[i])
				}
			}
			if c.same && out[0] != c.sends[0] {
				t.Fatalf("forwarded send %+v is not the original %+v", out[0], c.sends[0])
			}
		})
	}
}

// FuzzPerRecipient checks PerRecipient against the reference expansion —
// every in-range copy as an explicit unicast, re-wrapped — on random
// envelope chains of depth 0–10 (past the Path cap), broadcast, unicast
// and out-of-range destinations, and a random Forward/nil/rewrite answer
// per copy: every receiver must get the same messages in the same order,
// and fn must see the same (recipient, path, leaf) calls in the same order.
func FuzzPerRecipient(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(seed, uint8(4), uint8(6))
	}
	f.Fuzz(func(t *testing.T, seed int64, nRaw, countRaw uint8) {
		n := 1 + int(nRaw%9)
		rng := rand.New(rand.NewSource(seed))
		sends := make([]proto.Send, int(countRaw%12))
		for i := range sends {
			var m proto.Message = core.TwoClockMsg{V: uint8(rng.Intn(3))}
			for d := rng.Intn(11); d > 0; d-- {
				if rng.Intn(2) == 0 {
					m = proto.Envelope{Child: uint8(rng.Intn(4)), Inner: m}
				} else {
					m = &proto.Envelope{Child: uint8(rng.Intn(4)), Inner: m}
				}
			}
			sends[i] = proto.Send{To: rng.Intn(n+3) - 1, Msg: m} // -1 is Broadcast
		}
		// One answer per (send, recipient), drawn up front so the real call
		// and the reference see the same ones.
		answer := make([][]proto.Message, len(sends))
		for i := range answer {
			answer[i] = make([]proto.Message, n)
			for to := range answer[i] {
				switch rng.Intn(3) {
				case 0:
					answer[i][to] = adversary.Forward
				case 1:
					answer[i][to] = core.TwoClockMsg{V: uint8(3 + rng.Intn(5))}
				}
			}
		}
		type call struct {
			send, to int
			desc     string // recipient, path and leaf encoding
		}
		var ref []proto.Send
		var refCalls []call
		for i, s := range sends {
			path, leaf := adversary.Unwrap(s.Msg)
			for to := 0; to < n; to++ {
				if s.To != to && s.To != proto.Broadcast {
					continue
				}
				refCalls = append(refCalls, call{i, to, fmt.Sprint(to, path, wireOf(t, leaf))})
				switch a := answer[i][to]; a {
				case nil:
				case adversary.Forward:
					ref = append(ref, proto.Send{To: to, Msg: adversary.Wrap(path, leaf)})
				default:
					ref = append(ref, proto.Send{To: to, Msg: adversary.Wrap(path, a)})
				}
			}
		}
		k := 0
		out := adversary.PerRecipient(n, sends, func(to int, path adversary.Path, leaf proto.Message) proto.Message {
			if k >= len(refCalls) {
				t.Fatalf("call %d (to %d) past the %d expected", k, to, len(refCalls))
			}
			want := refCalls[k]
			k++
			if got := fmt.Sprint(to, path, wireOf(t, leaf)); got != want.desc {
				t.Fatalf("call %d = %q, want %q", k-1, got, want.desc)
			}
			return answer[want.send][want.to]
		})
		if k != len(refCalls) {
			t.Fatalf("%d calls, want %d", k, len(refCalls))
		}
		if got, want := deliveries(t, n, out), deliveries(t, n, ref); !reflect.DeepEqual(got, want) {
			t.Fatalf("deliveries:\n got %q\nwant %q", got, want)
		}
	})
}

// allocsAt runs inner as the engine's adversary and, at one beat,
// measures inner.Act's allocations on that beat's real traffic.
type allocsAt struct {
	inner   adversary.Adversary
	beat    uint64
	allocs  float64
	rewrote bool // the measured beat equivocated a 2-clock vote
}

func (a *allocsAt) Act(beat uint64, composed []adversary.Sends, visible []adversary.Intercept) []adversary.Sends {
	out := a.inner.Act(beat, composed, visible)
	if beat == a.beat {
		a.allocs = testing.AllocsPerRun(20, func() { a.inner.Act(beat, composed, visible) })
		for _, s := range out {
			for _, snd := range s.Out {
				_, leaf := adversary.Unwrap(snd.Msg)
				if _, ok := leaf.(core.TwoClockMsg); ok && snd.To != proto.Broadcast {
					a.rewrote = true
				}
			}
		}
	}
	return out
}

// TestClockSplitterActAllocs pins the adversary boundary's allocation
// cost: on a real beat of the bench/ engine-n16 shape (and at n=7),
// ClockSplitter.Act allocates at most 3f+2 times — a constant per faulty
// node, however many copies it forwards or rewrites.
func TestClockSplitterActAllocs(t *testing.T) {
	for _, c := range []struct{ n, f int }{{16, 5}, {7, 2}} {
		probe := &allocsAt{beat: 24}
		cfg := sim.Config{
			N: c.n, F: c.f, Seed: 1, ScrambleStart: true,
			NewAdversary: func(ctx *adversary.Context) adversary.Adversary {
				probe.inner = &adversary.ClockSplitter{Ctx: ctx}
				return probe
			},
		}
		sim.New(cfg, core.NewClockSyncProtocolLayout(64, coin.FMFactory{}, core.LayoutShared)).Run(25)
		if !probe.rewrote {
			t.Fatalf("n=%d: beat %d rewrote no 2-clock vote; the pin measures nothing", c.n, probe.beat)
		}
		if limit := float64(3*c.f + 2); probe.allocs > limit {
			t.Fatalf("n=%d f=%d: ClockSplitter.Act allocates %.0f times per beat, want <= %.0f", c.n, c.f, probe.allocs, limit)
		}
		t.Logf("n=%d f=%d: %.0f allocs per Act", c.n, c.f, probe.allocs)
	}
}
