package gvss

// Differential fuzzing for the fused validate+tally echo sweep.
// FuzzValidateSweep throws hostile flat echo traffic — wrong-length
// matrices, out-of-range elements (P exactly, high-bit values, garbage),
// disagreeing values, flipped Has bits, duplicate and out-of-range
// senders — at DeliverEcho and requires that (a) the agreement tallies
// its sweep phase (deliverEchoTally) accumulates match a branchy scalar
// model of the documented semantics (shape and validity gating,
// last-valid-wins, rollback exactness) and (b) every dealing the model
// counts a quorum of agreeing echoes for ends with a validated row.
// Ragged and non-square matrices never reach a receiver: the wire
// decoder rejects them (package wire's TestDecodeRejectsNonSquare).
//
// TestDuplicateShareCannotClobberInstalledRows pins the Byzantine
// duplicate-sender fix in DeliverShare: a half-invalid duplicate runs
// the fused validator before any copy, so it cannot scribble over rows
// installed by an earlier valid message.

import (
	"math/rand"
	"slices"
	"testing"

	"ssbyzclock/internal/field"
	"ssbyzclock/internal/proto"
)

// hornerAt evaluates p at x with plain modular arithmetic — the test's
// independent oracle for "my row's value at sender w's point".
func hornerAt(p field.Poly, x uint64) field.Elem {
	var acc uint64
	for k := len(p) - 1; k >= 0; k-- {
		acc = (acc*x + uint64(p[k])) % uint64(field.P)
	}
	return field.Elem(acc)
}

// cloneEcho deep-copies an echo message into test-owned storage.
func cloneEcho(m *EchoMsg) *EchoMsg {
	return &EchoMsg{Vals: slices.Clone(m.Vals), Has: slices.Clone(m.Has)}
}

// modelEchoTallies is the branchy scalar reference for DeliverEcho's
// sweep phase: per message, drop wrong shapes, contribute to the tallies
// only if every element is canonical, and on a valid duplicate subtract
// the previous matrix's contribution before adding the new one (last
// valid wins).
func modelEchoTallies(n int, ev [][]field.Elem, inbox []proto.Recv) []uint64 {
	agree := make([]uint64, n*n)
	stored := make([]*EchoMsg, n)
	for _, r := range inbox {
		m, ok := r.Msg.(*EchoMsg)
		if !ok || r.From < 0 || r.From >= n || len(m.Vals) != n*n || len(m.Has) != n*n {
			continue
		}
		valid := true
		for _, e := range m.Vals {
			if uint64(e) >= field.P {
				valid = false
			}
		}
		if !valid {
			continue
		}
		w := r.From
		if old := stored[w]; old != nil {
			for i := range old.Vals {
				if old.Has[i] && old.Vals[i] == ev[w][i] {
					agree[i]--
				}
			}
		}
		stored[w] = m
		for i := range m.Vals {
			if m.Has[i] && m.Vals[i] == ev[w][i] {
				agree[i]++
			}
		}
	}
	return agree
}

// runShareRound drives one honest share round so every instance holds
// every row.
func runShareRound(h *harness) {
	sends := make([][]proto.Send, h.n)
	for i, ins := range h.ins {
		sends[i] = ins.ComposeShare()
	}
	inboxes := h.route(sends, nil)
	for i, ins := range h.ins {
		ins.DeliverShare(inboxes[i])
	}
}

// echoesToZero composes the echo round and collects each sender's
// message addressed to node 0, cloned into test-owned storage.
func echoesToZero(h *harness) []*EchoMsg {
	msgs := make([]*EchoMsg, h.n)
	for i, ins := range h.ins {
		for _, s := range ins.ComposeEcho() {
			if s.To == 0 || s.To == proto.Broadcast {
				msgs[i] = cloneEcho(s.Msg.(*EchoMsg))
			}
		}
	}
	return msgs
}

func FuzzValidateSweep(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3})
	f.Add([]byte{1, 1, 0, 16, 99, 6, 2, 0, 0, 0, 3, 0, 0})
	f.Add([]byte{0, 4, 0, 0, 0, 2, 0, 5, 77, 6, 1, 0, 0, 0, 1, 3, 200})
	f.Add([]byte{1, 5, 2, 1, 3, 7, 0, 9, 9, 6, 3, 0, 0, 2, 3, 8, 1})
	f.Add([]byte{0, 6, 1, 0, 0, 0, 1, 3, 1, 6, 1, 0, 1, 1, 1, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 4
		if data[0]&1 == 1 {
			n = 7
		}
		fByz := (n - 1) / 3
		nn := n * n

		h := newHarness(t, 31, n, fByz)
		runShareRound(h)
		inbox := []proto.Recv{}
		for w, m := range echoesToZero(h) {
			inbox = append(inbox, proto.Recv{From: w, Msg: m})
		}

		// Apply fuzz-directed hostile edits, 4 bytes per op, capped so a
		// long input cannot blow the per-exec budget.
		ops := data[1:]
		for len(ops) >= 4 && len(inbox) > 0 {
			op, tgt, pos, val := ops[0], ops[1], ops[2], ops[3]
			ops = ops[4:]
			r := &inbox[int(tgt)%len(inbox)]
			m := r.Msg.(*EchoMsg)
			if op%8 < 4 && (len(m.Vals) != nn || len(m.Has) != nn) {
				continue // already misshapen; nothing to corrupt in place
			}
			switch op % 8 {
			case 0: // exactly P: only the borrow half of the range check sees it
				m.Vals[int(pos)%nn] = field.Elem(field.P)
			case 1: // high bit set: the hi half sees it
				m.Vals[int(pos)%nn] = field.Elem(uint64(1)<<31 | uint64(val))
			case 2: // valid but disagreeing value
				m.Vals[int(pos)%nn] = field.Elem(uint64(val) % field.P)
			case 3:
				m.Has[int(pos)%nn] = !m.Has[int(pos)%nn]
			case 4: // short Vals: malformed, must be dropped
				m.Vals = m.Vals[:min(int(val)%nn, len(m.Vals))]
			case 5: // long Has: malformed, must be dropped
				m.Has = append(slices.Clip(m.Has), val&1 == 1)
			case 6: // duplicate sender, possibly already corrupted
				if len(inbox) < 4*n {
					inbox = append(inbox, proto.Recv{From: r.From, Msg: cloneEcho(m)})
				}
			case 7: // out-of-range sender: ignored entirely
				r.From = n + int(pos)
			}
		}

		// Independent oracle for my rows' values at each sender's point.
		ins0 := h.ins[0]
		ev := make([][]field.Elem, n)
		for w := 0; w < n; w++ {
			ev[w] = make([]field.Elem, nn)
			for dt := 0; dt < nn; dt++ {
				ev[w][dt] = hornerAt(ins0.row(dt), uint64(w+1))
			}
		}
		want := modelEchoTallies(n, ev, inbox)

		// The sweep phase alone, into a test-owned tally. It leaves the
		// instance untouched, so DeliverEcho below sees the same state.
		agree := make([]uint64, nn)
		sc := getScratch(n, fByz)
		ins0.deliverEchoTally(sc, inbox, agree)
		putScratch(sc)
		for i := range want {
			if agree[i] != want[i] {
				t.Fatalf("agree[%d]=%d, model %d", i, agree[i], want[i])
			}
		}

		ins0.DeliverEcho(inbox)
		quorum := n - fByz
		for dt := 0; dt < nn; dt++ {
			if int(want[dt]) >= quorum && !ins0.rowOKFlat[dt] {
				t.Fatalf("rowOK[%d] false with %d agreeing echoes (quorum %d)", dt, want[dt], quorum)
			}
		}
	})
}

// mkShareRows builds a full, canonical share payload derived from base.
func mkShareRows(n, f int, base uint64) []field.Poly {
	rows := make([]field.Poly, n)
	for t := range rows {
		row := make(field.Poly, f+1)
		for k := range row {
			row[k] = field.Elem((base + uint64(t*31+k*7+1)) % field.P)
		}
		rows[t] = row
	}
	return rows
}

func TestDuplicateShareCannotClobberInstalledRows(t *testing.T) {
	n, f := 4, 1
	env := proto.Env{N: n, F: f, ID: 0, Rng: rand.New(rand.NewSource(3))}
	ins := New(env, env.Rng)

	good := mkShareRows(n, f, 100)
	// Half-invalid duplicate: every row well-shaped and canonical except
	// an out-of-range element in the LAST row — a copy-then-validate
	// implementation would have overwritten rows 0..n-2 before noticing.
	clobber := mkShareRows(n, f, 900000)
	clobber[n-1][0] = field.Elem(field.P)
	ins.DeliverShare([]proto.Recv{
		{From: 1, Msg: &ShareMsg{Rows: good}},
		{From: 1, Msg: &ShareMsg{Rows: clobber}},
	})
	for tt := 0; tt < n; tt++ {
		for k := 0; k <= f; k++ {
			if ins.row(1*n + tt)[k] != good[tt][k] {
				t.Fatalf("invalid duplicate clobbered row %d coef %d: %d, want %d",
					tt, k, ins.row(1*n + tt)[k], good[tt][k])
			}
		}
	}

	// A short-row duplicate is equally powerless.
	short := mkShareRows(n, f, 500)
	short[0] = short[0][:f]
	ins.DeliverShare([]proto.Recv{
		{From: 1, Msg: &ShareMsg{Rows: good}},
		{From: 1, Msg: &ShareMsg{Rows: short}},
	})
	for tt := 0; tt < n; tt++ {
		for k := 0; k <= f; k++ {
			if ins.row(1*n + tt)[k] != good[tt][k] {
				t.Fatalf("short duplicate clobbered row %d coef %d", tt, k)
			}
		}
	}

	// A fully valid duplicate replaces the installed rows (last wins).
	repl := mkShareRows(n, f, 7777)
	ins.DeliverShare([]proto.Recv{
		{From: 1, Msg: &ShareMsg{Rows: good}},
		{From: 1, Msg: &ShareMsg{Rows: repl}},
	})
	for tt := 0; tt < n; tt++ {
		for k := 0; k <= f; k++ {
			if ins.row(1*n + tt)[k] != repl[tt][k] {
				t.Fatalf("valid duplicate did not replace row %d coef %d", tt, k)
			}
		}
	}

	// And an invalid FIRST message installs nothing at all.
	ins2 := New(proto.Env{N: n, F: f, ID: 0, Rng: rand.New(rand.NewSource(4))}, rand.New(rand.NewSource(4)))
	ins2.DeliverShare([]proto.Recv{{From: 2, Msg: &ShareMsg{Rows: clobber}}})
	for tt := 0; tt < n; tt++ {
		if ins2.row(2*n+tt) != nil {
			t.Fatalf("invalid first message left row %d installed", tt)
		}
	}
}
