package gvss

import (
	"math/rand"
	"slices"
	"testing"

	"ssbyzclock/internal/field"
	"ssbyzclock/internal/pool"
	"ssbyzclock/internal/proto"
)

// harness drives n Instances through the four rounds, letting a test
// mutate or replace the messages of Byzantine senders between rounds.
type harness struct {
	n, f int
	ins  []*Instance
	byz  map[int]bool
}

func newHarness(t *testing.T, seed int64, n, f int, byz ...int) *harness {
	t.Helper()
	h := &harness{n: n, f: f, byz: map[int]bool{}}
	for _, b := range byz {
		h.byz[b] = true
	}
	for i := 0; i < n; i++ {
		env := proto.Env{N: n, F: f, ID: i, Rng: rand.New(rand.NewSource(seed + int64(i)))}
		h.ins = append(h.ins, New(env, env.Rng))
	}
	return h
}

// route fans out per-node sends into per-node inboxes, expanding
// broadcasts. tamper, if non-nil, can rewrite (or drop, by returning nil)
// each message from a Byzantine sender per recipient.
func (h *harness) route(sends [][]proto.Send, tamper func(from, to int, m proto.Message) proto.Message) [][]proto.Recv {
	inboxes := make([][]proto.Recv, h.n)
	deliver := func(from, to int, m proto.Message) {
		if h.byz[from] && tamper != nil {
			m = tamper(from, to, m)
			if m == nil {
				return
			}
		}
		inboxes[to] = append(inboxes[to], proto.Recv{From: from, Msg: m})
	}
	for from, ss := range sends {
		for _, s := range ss {
			if s.To == proto.Broadcast {
				for to := 0; to < h.n; to++ {
					deliver(from, to, s.Msg)
				}
			} else if s.To >= 0 && s.To < h.n {
				deliver(from, s.To, s.Msg)
			}
		}
	}
	return inboxes
}

// run executes all four rounds with the given tamper function.
func (h *harness) run(tamper func(round, from, to int, m proto.Message) proto.Message) {
	rounds := []struct {
		compose func(*Instance) []proto.Send
		deliver func(*Instance, []proto.Recv)
	}{
		{(*Instance).ComposeShare, (*Instance).DeliverShare},
		{(*Instance).ComposeEcho, (*Instance).DeliverEcho},
		{(*Instance).ComposeVote, (*Instance).DeliverVote},
		{(*Instance).ComposeRecover, (*Instance).DeliverRecover},
	}
	for ri, r := range rounds {
		sends := make([][]proto.Send, h.n)
		for i, ins := range h.ins {
			sends[i] = r.compose(ins)
		}
		var t2 func(from, to int, m proto.Message) proto.Message
		if tamper != nil {
			t2 = func(from, to int, m proto.Message) proto.Message {
				return tamper(ri, from, to, m)
			}
		}
		inboxes := h.route(sends, t2)
		for i, ins := range h.ins {
			r.deliver(ins, inboxes[i])
		}
	}
}

func (h *harness) honest() []int {
	var out []int
	for i := 0; i < h.n; i++ {
		if !h.byz[i] {
			out = append(out, i)
		}
	}
	return out
}

func TestAllHonestFullRecovery(t *testing.T) {
	h := newHarness(t, 1, 7, 2)
	h.run(nil)
	for d := 0; d < h.n; d++ {
		for tgt := 0; tgt < h.n; tgt++ {
			want := h.ins[d].DealtSecret(tgt)
			for _, u := range h.honest() {
				if g := h.ins[u].Grade(d, tgt); g != GradeHigh {
					t.Fatalf("node %d grade(%d,%d)=%d want high", u, d, tgt, g)
				}
				got, ok := h.ins[u].Recovered(d, tgt)
				if !ok || got != want {
					t.Fatalf("node %d recovered(%d,%d)=(%d,%v) want %d", u, d, tgt, got, ok, want)
				}
			}
		}
	}
}

// TestMessagesAreBeatLeases: every round's message structs and send
// list are leases from the node's pool, not instance state. Each round
// runs on poisoned pools; after delivery the pools recycle, and every
// message the sends pointed at — and the send lists themselves — must
// read zero. The session must still recover every secret exactly, so
// no round read a message after its recycle.
func TestMessagesAreBeatLeases(t *testing.T) {
	const n, f = 4, 1
	h := newHarness(t, 3, n, f)
	pools := make([]*pool.Node, n)
	for i, ins := range h.ins {
		pools[i] = &pool.Node{}
		pools[i].SetPoison(true)
		ins.env.Pool = pools[i]
	}
	rounds := []struct {
		compose func(*Instance) []proto.Send
		deliver func(*Instance, []proto.Recv)
	}{
		{(*Instance).ComposeShare, (*Instance).DeliverShare},
		{(*Instance).ComposeEcho, (*Instance).DeliverEcho},
		{(*Instance).ComposeVote, (*Instance).DeliverVote},
		{(*Instance).ComposeRecover, (*Instance).DeliverRecover},
	}
	for ri, r := range rounds {
		sends := make([][]proto.Send, n)
		var msgs []proto.Message
		for i, ins := range h.ins {
			sends[i] = r.compose(ins)
			for _, s := range sends[i] {
				msgs = append(msgs, s.Msg)
			}
		}
		inboxes := h.route(sends, nil)
		for i, ins := range h.ins {
			r.deliver(ins, inboxes[i])
		}
		for _, p := range pools {
			p.Recycle()
		}
		for i, ss := range sends {
			for _, s := range ss {
				if s != (proto.Send{}) {
					t.Fatalf("round %d: node %d's recycled send list reads %+v", ri+1, i, s)
				}
			}
		}
		for _, m := range msgs {
			var zero bool
			switch m := m.(type) {
			case *ShareMsg:
				zero = m.Rows == nil
			case *EchoMsg:
				zero = m.Vals == nil && m.Has == nil
			case *VoteMsg:
				zero = m.OK == nil
			case *RecoverMsg:
				zero = m.Shares == nil && m.HasRow == nil
			}
			if !zero {
				t.Fatalf("round %d: recycled %s message still reads %+v", ri+1, m.Kind(), m)
			}
		}
	}
	for d := 0; d < n; d++ {
		for tgt := 0; tgt < n; tgt++ {
			want := h.ins[d].DealtSecret(tgt)
			for u := 0; u < n; u++ {
				if got, ok := h.ins[u].Recovered(d, tgt); !ok || got != want {
					t.Fatalf("node %d recovered(%d,%d)=(%d,%v) want %d", u, d, tgt, got, ok, want)
				}
			}
		}
	}
}

// TestEchoCacheLeasedPerCompose: the compose→deliver echo cache is a
// lease from the node's pool, taken by every ComposeEcho, so a compose
// whose deliver never came (the beat ended first) leaves nothing behind
// that the next beat's compose would reuse. On warm poisoning pools —
// warm, as every node's is after its first beats, so each beat's leases
// land where the previous beat's did — ComposeEcho, Recycle, ComposeEcho,
// DeliverEcho must compose and install exactly what an unpooled twin
// does. Dealer 1's shares never reach node 0, so node 0 holds a sparse
// row set and takes the scatter path, which reads the cache it filled.
func TestEchoCacheLeasedPerCompose(t *testing.T) {
	const n, f = 4, 1
	ref, got := newHarness(t, 5, n, f, 1), newHarness(t, 5, n, f, 1)
	pools := make([]*pool.Node, n)
	for i, ins := range got.ins {
		pools[i] = &pool.Node{}
		pools[i].SetPoison(true)
		pools[i].Elems(1 << 12)
		pools[i].Recycle()
		ins.env.Pool = pools[i]
	}
	recycle := func() {
		for _, p := range pools {
			p.Recycle()
		}
	}
	dropToNode0 := func(from, to int, m proto.Message) proto.Message {
		if to == 0 {
			return nil
		}
		return m
	}
	round := func(h *harness, compose func(*Instance) []proto.Send, deliver func(*Instance, []proto.Recv), tamper func(from, to int, m proto.Message) proto.Message) [][]proto.Send {
		sends := make([][]proto.Send, n)
		for i, ins := range h.ins {
			sends[i] = compose(ins)
		}
		inboxes := h.route(sends, tamper)
		for i, ins := range h.ins {
			deliver(ins, inboxes[i])
		}
		return sends
	}
	round(ref, (*Instance).ComposeShare, (*Instance).DeliverShare, dropToNode0)
	round(got, (*Instance).ComposeShare, (*Instance).DeliverShare, dropToNode0)
	recycle()
	for _, ins := range got.ins {
		ins.ComposeEcho() // its beat ends before the deliver
	}
	recycle()
	want := round(ref, (*Instance).ComposeEcho, (*Instance).DeliverEcho, nil)
	have := round(got, (*Instance).ComposeEcho, (*Instance).DeliverEcho, nil)
	for i := range want {
		for k := range want[i] {
			w, h := want[i][k].Msg.(*EchoMsg), have[i][k].Msg.(*EchoMsg)
			for j := range w.Vals {
				if w.Vals[j] != h.Vals[j] || w.Has[j] != h.Has[j] {
					t.Fatalf("node %d's echo to %d differs at %d: (%d,%v), unpooled (%d,%v)", i, k, j, h.Vals[j], h.Has[j], w.Vals[j], w.Has[j])
				}
			}
		}
		r, g := ref.ins[i], got.ins[i]
		for dt := range r.rowLen {
			if r.rowLen[dt] != g.rowLen[dt] || r.rowOKFlat[dt] != g.rowOKFlat[dt] || !slices.Equal(r.row(dt), g.row(dt)) {
				t.Fatalf("node %d dealing %d after DeliverEcho: row %v ok %v, unpooled %v ok %v", i, dt, g.row(dt), g.rowOKFlat[dt], r.row(dt), r.rowOKFlat[dt])
			}
		}
	}
	if want[0][0].Msg.(*EchoMsg).Has[1*n] {
		t.Fatal("node 0 echoed dealer 1's rows: the scatter path went untested")
	}
}

func TestHonestDealerSurvivesByzantineNoise(t *testing.T) {
	// Byzantine nodes replace every message with random garbage of valid
	// shape. Honest dealers' dealings must still reach grade 2 with exact
	// recovery at every honest node.
	for _, cfg := range []struct{ n, f int }{{4, 1}, {7, 2}, {10, 3}} {
		byz := make([]int, cfg.f)
		for i := range byz {
			byz[i] = i // nodes 0..f-1 are Byzantine
		}
		h := newHarness(t, 7, cfg.n, cfg.f, byz...)
		grng := rand.New(rand.NewSource(99))
		h.run(func(round, from, to int, m proto.Message) proto.Message {
			return garbage(grng, m, cfg.n, cfg.f)
		})
		for _, d := range h.honest() {
			for tgt := 0; tgt < h.n; tgt++ {
				want := h.ins[d].DealtSecret(tgt)
				for _, u := range h.honest() {
					if g := h.ins[u].Grade(d, tgt); g != GradeHigh {
						t.Fatalf("n=%d f=%d: node %d grade(%d,%d)=%d want high", cfg.n, cfg.f, u, d, tgt, g)
					}
					got, ok := h.ins[u].Recovered(d, tgt)
					if !ok || got != want {
						t.Fatalf("n=%d f=%d: node %d wrong recovery of honest dealer %d", cfg.n, cfg.f, u, d)
					}
				}
			}
		}
	}
}

func TestSilentByzantine(t *testing.T) {
	// Byzantine nodes drop all their messages. Honest dealings must still
	// reach grade 2 and recover exactly.
	h := newHarness(t, 3, 7, 2, 0, 1)
	h.run(func(round, from, to int, m proto.Message) proto.Message { return nil })
	for _, d := range h.honest() {
		for tgt := 0; tgt < h.n; tgt++ {
			for _, u := range h.honest() {
				if g := h.ins[u].Grade(d, tgt); g != GradeHigh {
					t.Fatalf("node %d grade(%d,%d)=%d want high", u, d, tgt, g)
				}
				got, ok := h.ins[u].Recovered(d, tgt)
				if !ok || got != h.ins[d].DealtSecret(tgt) {
					t.Fatalf("node %d failed recovery of honest dealer %d", u, d)
				}
			}
		}
		// Byzantine dealers sent nothing: grade 0 everywhere.
		for _, u := range h.honest() {
			if g := h.ins[u].Grade(0, 0); g != GradeNone {
				t.Fatalf("silent dealer got grade %d at node %d", g, u)
			}
		}
	}
}

func TestRowFixRepairsWithheldShare(t *testing.T) {
	// A Byzantine dealer sends correct shares to everyone except one
	// honest victim (dropped). The victim must repair its rows from the
	// echo round and still end with a validated row and exact recovery —
	// the row-fix mechanism working as designed.
	h := newHarness(t, 5, 7, 2, 3)
	const victim = 0
	h.run(func(round, from, to int, m proto.Message) proto.Message {
		if round == 0 && to == victim {
			return nil // withhold the victim's shares
		}
		return m
	})
	for tgt := 0; tgt < h.n; tgt++ {
		want := h.ins[3].DealtSecret(tgt)
		for _, u := range h.honest() {
			if g := h.ins[u].Grade(3, tgt); g != GradeHigh {
				t.Fatalf("node %d grade(3,%d)=%d want high", u, tgt, g)
			}
			got, ok := h.ins[u].Recovered(3, tgt)
			if !ok || got != want {
				t.Fatalf("node %d wrong recovery despite row fix", u)
			}
		}
	}
}

func TestGradeSemanticsHighImpliesLowEverywhere(t *testing.T) {
	// Byzantine dealer equivocates: valid consistent dealing to one half,
	// a different valid dealing to the other half; Byzantine voters vote
	// strategically. Invariant: if any honest node grades (d,t) high,
	// every honest node grades it >= low.
	grng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		h := newHarness(t, int64(100+trial), 7, 2, 0, 1)
		h.run(func(round, from, to int, m proto.Message) proto.Message {
			if _, isVote := m.(*VoteMsg); isVote {
				// Vote yes/no at random per recipient (equivocation).
				ok := make([]bool, h.n*h.n)
				for i := range ok {
					ok[i] = grng.Intn(2) == 0
				}
				return &VoteMsg{OK: ok}
			}
			return m
		})
		for d := 0; d < h.n; d++ {
			for tgt := 0; tgt < h.n; tgt++ {
				anyHigh := false
				for _, u := range h.honest() {
					if h.ins[u].Grade(d, tgt) == GradeHigh {
						anyHigh = true
					}
				}
				if !anyHigh {
					continue
				}
				for _, u := range h.honest() {
					if h.ins[u].Grade(d, tgt) == GradeNone {
						t.Fatalf("trial %d: grade high at one honest node, none at node %d (dealing %d,%d)",
							trial, u, d, tgt)
					}
				}
			}
		}
	}
}

func TestRecoverToleratesCorruptShares(t *testing.T) {
	// Byzantine nodes send corrupted recover shares for honest dealings.
	h := newHarness(t, 9, 10, 3, 0, 1, 2)
	grng := rand.New(rand.NewSource(21))
	h.run(func(round, from, to int, m proto.Message) proto.Message {
		if _, ok := m.(*RecoverMsg); ok {
			out := &RecoverMsg{Shares: make([]field.Elem, h.n*h.n), HasRow: make([]bool, h.n*h.n)}
			for i := range out.Shares {
				out.Shares[i] = field.Reduce(grng.Uint64())
				out.HasRow[i] = true
			}
			return out
		}
		return m
	})
	for _, d := range h.honest() {
		for tgt := 0; tgt < h.n; tgt++ {
			want := h.ins[d].DealtSecret(tgt)
			for _, u := range h.honest() {
				got, ok := h.ins[u].Recovered(d, tgt)
				if !ok || got != want {
					t.Fatalf("node %d recovery poisoned by corrupt shares (dealer %d)", u, d)
				}
			}
		}
	}
}

func TestMalformedMessagesDropped(t *testing.T) {
	// Shape-invalid messages (wrong dimensions, out-of-range elements)
	// must be ignored without panicking.
	h := newHarness(t, 13, 4, 1, 3)
	h.run(func(round, from, to int, m proto.Message) proto.Message {
		switch round {
		case 0:
			return &ShareMsg{Rows: []field.Poly{{field.Elem(field.P + 5)}}}
		case 1:
			return &EchoMsg{Vals: []field.Elem{1, 2}}
		case 2:
			return &VoteMsg{OK: []bool{true}}
		default:
			return &RecoverMsg{Shares: nil, HasRow: nil}
		}
	})
	for _, d := range h.honest() {
		for tgt := 0; tgt < h.n; tgt++ {
			for _, u := range h.honest() {
				if g := h.ins[u].Grade(d, tgt); g != GradeHigh {
					t.Fatalf("node %d grade(%d,%d)=%d want high", u, d, tgt, g)
				}
			}
		}
	}
}

// garbage returns a shape-valid random message of the same type as m.
func garbage(rng *rand.Rand, m proto.Message, n, f int) proto.Message {
	switch m.(type) {
	case *ShareMsg:
		rows := make([]field.Poly, n)
		for t := range rows {
			rows[t] = make(field.Poly, f+1)
			for c := range rows[t] {
				rows[t][c] = field.Reduce(rng.Uint64())
			}
		}
		return &ShareMsg{Rows: rows}
	case *EchoMsg:
		vals := make([]field.Elem, n*n)
		has := make([]bool, n*n)
		for i := range vals {
			vals[i] = field.Reduce(rng.Uint64())
			has[i] = true
		}
		return &EchoMsg{Vals: vals, Has: has}
	case *VoteMsg:
		ok := make([]bool, n*n)
		for i := range ok {
			ok[i] = rng.Intn(2) == 0
		}
		return &VoteMsg{OK: ok}
	case *RecoverMsg:
		shares := make([]field.Elem, n*n)
		has := make([]bool, n*n)
		for i := range shares {
			shares[i] = field.Reduce(rng.Uint64())
			has[i] = true
		}
		return &RecoverMsg{Shares: shares, HasRow: has}
	default:
		return m
	}
}

func BenchmarkFullSessionN7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := &harness{n: 7, f: 2, byz: map[int]bool{}}
		for j := 0; j < 7; j++ {
			env := proto.Env{N: 7, F: 2, ID: j, Rng: rand.New(rand.NewSource(int64(i*7 + j)))}
			h.ins = append(h.ins, New(env, env.Rng))
		}
		h.run(nil)
	}
}

// TestElemsValidAdversarial pins the branchless canonical-range scan
// against the full uint64 range, including the wrap-around values a
// Byzantine in-memory sender can place in a message (the sim engine does
// not route adversary messages through wire.Decode's Reduce).
func TestElemsValidAdversarial(t *testing.T) {
	ok := func(es ...field.Elem) bool { return elemsValid(es) }
	if !ok(0, 1, field.Elem(field.P-1)) {
		t.Fatal("canonical values rejected")
	}
	for _, bad := range []uint64{
		field.P,                  // the one non-canonical value below 2^31
		field.P + 1,              //
		1 << 31,                  //
		1 << 62,                  //
		1<<63 + field.P,          // wraps the naive borrow check
		1<<63 + field.P - 2,      //
		^uint64(0),               // all ones
		^uint64(0) - field.P + 1, //
	} {
		if ok(1, field.Elem(bad), 2) {
			t.Fatalf("non-canonical value %d accepted", bad)
		}
	}
}
