package proto

import (
	"math/rand"
	"testing"

	"ssbyzclock/internal/pool"
)

type fakeMsg struct{ id int }

func (fakeMsg) Kind() string { return "test.fake" }

func TestWrapSendsPreservesDestinations(t *testing.T) {
	in := []Send{
		{To: Broadcast, Msg: fakeMsg{1}},
		{To: 3, Msg: fakeMsg{2}},
	}
	out := Wrap(nil, 7, in, nil)
	if len(out) != 2 {
		t.Fatalf("len = %d", len(out))
	}
	for i, s := range out {
		env, ok := AsEnvelope(s.Msg)
		if !ok || env.Child != 7 {
			t.Fatalf("send %d not wrapped with child 7: %#v", i, s.Msg)
		}
		if s.To != in[i].To {
			t.Fatalf("destination changed: %d -> %d", in[i].To, s.To)
		}
		if env.Inner.(fakeMsg).id != in[i].Msg.(fakeMsg).id {
			t.Fatalf("payload changed")
		}
	}
}

func TestWrapSendsEmpty(t *testing.T) {
	if out := Wrap(nil, 1, nil, nil); out != nil {
		t.Fatalf("wrapping nil produced %v", out)
	}
}

func TestSplitInboxRoutes(t *testing.T) {
	inbox := []Recv{
		{From: 0, Msg: Envelope{Child: 0, Inner: fakeMsg{10}}},
		{From: 1, Msg: Envelope{Child: 2, Inner: fakeMsg{11}}},
		{From: 2, Msg: Envelope{Child: 1, Inner: fakeMsg{12}}},
		{From: 3, Msg: Envelope{Child: 2, Inner: fakeMsg{13}}},
	}
	boxes := Split(nil, inbox, 3)
	if len(boxes[0]) != 1 || len(boxes[1]) != 1 || len(boxes[2]) != 2 {
		t.Fatalf("routing counts wrong: %d %d %d", len(boxes[0]), len(boxes[1]), len(boxes[2]))
	}
	if boxes[2][0].From != 1 || boxes[2][1].From != 3 {
		t.Fatalf("senders lost in routing")
	}
	if boxes[2][0].Msg.(fakeMsg).id != 11 {
		t.Fatalf("payload lost in routing")
	}
}

func TestSplitInboxDropsByzantineShapes(t *testing.T) {
	inbox := []Recv{
		{From: 0, Msg: fakeMsg{1}},                           // not an envelope
		{From: 1, Msg: Envelope{Child: 9, Inner: fakeMsg{}}}, // out-of-range child
		{From: 2, Msg: Envelope{Child: 1, Inner: fakeMsg{}}}, // valid
	}
	boxes := Split(nil, inbox, 2)
	if len(boxes[0]) != 0 || len(boxes[1]) != 1 {
		t.Fatalf("invalid messages not dropped: %d %d", len(boxes[0]), len(boxes[1]))
	}
}

// TestAppendGrowsByLease: Append and Wrap grow a send list past its
// capacity by moving it to a larger lease, keeping every earlier entry.
func TestAppendGrowsByLease(t *testing.T) {
	var pl pool.Node
	var out []Send
	for i := 0; i < 9; i++ {
		out = Append(&pl, out, Send{To: i, Msg: fakeMsg{i}})
		out = Wrap(&pl, 2, []Send{{To: i, Msg: fakeMsg{i}}}, out)
	}
	for i, s := range out {
		if s.To != i/2 {
			t.Fatalf("send %d addressed to %d, want %d", i, s.To, i/2)
		}
		if env, ok := AsEnvelope(s.Msg); ok != (i%2 == 1) || ok && env.Inner.(fakeMsg).id != i/2 {
			t.Fatalf("send %d reads %#v", i, s.Msg)
		}
	}
}

// TestKeptEnvelopesReadPoison: in poison mode, envelopes and send lists
// kept past the pool's Recycle route nowhere — a kept envelope carries a
// child tag no router accepts (a zero tag would route to child 0) and no
// inner message, and a kept send list carries no message at all.
func TestKeptEnvelopesReadPoison(t *testing.T) {
	var pl pool.Node
	pl.SetPoison(true)
	sends := Wrap(&pl, 1, []Send{{To: 2, Msg: fakeMsg{1}}, {To: Broadcast, Msg: fakeMsg{2}}}, nil)
	sends = Append(&pl, sends, Box(&pl, 0, 3, fakeMsg{3}))
	var envs []*Envelope
	for _, s := range sends {
		envs = append(envs, s.Msg.(*Envelope))
	}
	pl.Recycle()
	for i, e := range envs {
		if boxes := Split(nil, []Recv{{From: 0, Msg: e}}, int(SharedCoinChild)+1); e.Inner != nil || len(boxes[0])+len(boxes[1])+len(boxes[2])+len(boxes[3]) != 0 {
			t.Fatalf("kept envelope %d reads child %d, inner %v: routable", i, e.Child, e.Inner)
		}
	}
	for i, s := range sends {
		if s.Msg != nil {
			t.Fatalf("kept send %d still carries %#v", i, s.Msg)
		}
	}
}

// TestKeptInboxesReadPoison: in poison mode, the per-child inboxes Split
// leased and a child inbox kept past the pool's Recycle carry no
// message.
func TestKeptInboxesReadPoison(t *testing.T) {
	var pl pool.Node
	pl.SetPoison(true)
	inbox := []Recv{
		{From: 0, Msg: Envelope{Child: 0, Inner: fakeMsg{10}}},
		{From: 1, Msg: &Envelope{Child: 1, Inner: fakeMsg{11}}},
	}
	boxes := Split(&pl, inbox, 2)
	kept := boxes[1]
	pl.Recycle()
	for c, b := range boxes {
		if b != nil {
			t.Fatalf("kept inbox list still holds child %d's inbox %v", c, b)
		}
	}
	for i, r := range kept {
		if r.Msg != nil {
			t.Fatalf("kept inbox entry %d still carries %#v", i, r.Msg)
		}
	}
}

func TestEnvValid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		env  Env
		want bool
	}{
		{Env{N: 4, F: 1, ID: 0, Rng: rng}, true},
		{Env{N: 4, F: 1, ID: 3, Rng: rng}, true},
		{Env{N: 4, F: 1, ID: 4, Rng: rng}, false},
		{Env{N: 4, F: 1, ID: -1, Rng: rng}, false},
		{Env{N: 0, F: 0, ID: 0, Rng: rng}, false},
		{Env{N: 4, F: -1, ID: 0, Rng: rng}, false},
		{Env{N: 4, F: 1, ID: 0, Rng: nil}, false},
	}
	for i, c := range cases {
		if got := c.env.Valid(); got != c.want {
			t.Errorf("case %d: Valid() = %v, want %v", i, got, c.want)
		}
	}
}

func TestQuorum(t *testing.T) {
	e := Env{N: 10, F: 3}
	if q := e.Quorum(); q != 7 {
		t.Fatalf("quorum = %d", q)
	}
}
