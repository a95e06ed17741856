package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"ssbyzclock/internal/baseline"
	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/field"
	"ssbyzclock/internal/gvss"
	"ssbyzclock/internal/proto"
)

func roundTrip(t *testing.T, m proto.Message) {
	t.Helper()
	b, err := Encode(m)
	if err != nil {
		t.Fatalf("encode %T: %v", m, err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("decode %T: %v", m, err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip mismatch:\n  in:  %#v\n  out: %#v", m, got)
	}
}

func TestRoundTripScalars(t *testing.T) {
	msgs := []proto.Message{
		core.TwoClockMsg{V: 0},
		core.TwoClockMsg{V: core.Bot},
		core.FullClockMsg{V: 0},
		core.FullClockMsg{V: 1<<63 - 1},
		&core.ProposeMsg{V: 42},
		&core.ProposeMsg{Bot: true},
		core.BitMsg{B: 1},
		baseline.ClockMsg{V: 12345},
		baseline.PhaseProposeMsg{V: 9, Bot: false},
		baseline.PhaseProposeMsg{Bot: true},
		baseline.PhaseBitMsg{B: 0},
		baseline.KingMsg{V: 7},
		&coin.AcceptMsg{Set: []uint16{}},
		&coin.AcceptMsg{Set: []uint16{0, 3, 65535}},
	}
	for _, m := range msgs {
		roundTrip(t, m)
	}
}

func TestRoundTripEnvelopes(t *testing.T) {
	m := proto.Envelope{Child: 2, Inner: proto.Envelope{Child: 0, Inner: proto.Envelope{Child: 5, Inner: core.BitMsg{B: 1}}}}
	roundTrip(t, m)
}

func TestRoundTripGVSSRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(8)
		f := rng.Intn(3)
		switch trial % 4 {
		case 0:
			rows := make([]field.Poly, n)
			for i := range rows {
				rows[i] = randPoly(rng, f+1)
			}
			roundTrip(t, &gvss.ShareMsg{Rows: rows})
		case 1:
			roundTrip(t, &gvss.EchoMsg{Vals: randMatrix(rng, n), Has: randBools(rng, n)})
		case 2:
			roundTrip(t, &gvss.VoteMsg{OK: randBools(rng, n)})
		case 3:
			roundTrip(t, &gvss.RecoverMsg{Shares: randMatrix(rng, n), HasRow: randBools(rng, n)})
		}
	}
}

// canonEnvelopes rewrites pointer-form envelopes at any nesting depth
// into the value form the codec decodes to.
func canonEnvelopes(m proto.Message) proto.Message {
	if env, ok := proto.AsEnvelope(m); ok {
		return proto.Envelope{Child: env.Child, Inner: canonEnvelopes(env.Inner)}
	}
	return m
}

func TestRoundTripWholeProtocolTraffic(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			// Everything a live ss-Byz-Clock-Sync node actually sends must make
			// it through the codec unchanged.
			env := proto.Env{N: 4, F: 1, ID: 0, Rng: rand.New(rand.NewSource(2))}
			node := core.NewClockSyncLayout(env, 64, coin.FMFactory{}, false, l)
			for beat := uint64(0); beat < 12; beat++ {
				sends := node.Compose(beat)
				var inbox []proto.Recv
				for _, s := range sends {
					b, err := Encode(s.Msg)
					if err != nil {
						t.Fatalf("beat %d: encode: %v", beat, err)
					}
					m, err := Decode(b)
					if err != nil {
						t.Fatalf("beat %d: decode: %v", beat, err)
					}
					// Compose may box envelopes as pointers (proto.WrapSends);
					// the codec always decodes the value form, so compare the
					// canonical value representation.
					if !reflect.DeepEqual(m, canonEnvelopes(s.Msg)) {
						t.Fatalf("beat %d: mismatch for %s", beat, s.Msg.Kind())
					}
					inbox = append(inbox, proto.Recv{From: 0, Msg: m})
				}
				node.Deliver(beat, inbox)
			}
		})
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		b := make([]byte, rng.Intn(64))
		rng.Read(b)
		// Must never panic; error or clean decode both acceptable.
		if m, err := Decode(b); err == nil {
			// Re-encoding a successful decode must round trip.
			b2, err := Encode(m)
			if err != nil {
				t.Fatalf("re-encode failed: %v", err)
			}
			m2, err := Decode(b2)
			if err != nil || !reflect.DeepEqual(m, m2) {
				t.Fatalf("unstable decode: %#v vs %#v", m, m2)
			}
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	m := &gvss.EchoMsg{Vals: randMatrix(rand.New(rand.NewSource(4)), 5), Has: randBools(rand.New(rand.NewSource(5)), 5)}
	b, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(b); cut++ {
		if _, err := Decode(b[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(b))
		}
	}
}

func TestDecodeRejectsTrailing(t *testing.T) {
	b, err := Encode(core.BitMsg{B: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(append(b, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestEncodeRejectsUnknownType(t *testing.T) {
	if _, err := Encode(unknownMsg{}); err == nil {
		t.Fatal("unknown type accepted")
	}
}

func TestEncodeRejectsDeepNesting(t *testing.T) {
	var m proto.Message = core.BitMsg{B: 0}
	for i := 0; i < 40; i++ {
		m = proto.Envelope{Child: 1, Inner: m}
	}
	if _, err := Encode(m); err == nil {
		t.Fatal("over-deep nesting accepted")
	}
}

func TestSizeReportsBytes(t *testing.T) {
	if s := Size(core.BitMsg{B: 1}); s != 2 {
		t.Fatalf("BitMsg size = %d, want 2", s)
	}
	if s := Size(unknownMsg{}); s != 0 {
		t.Fatalf("unknown size = %d, want 0", s)
	}
}

type unknownMsg struct{}

func (unknownMsg) Kind() string { return "test.unknown" }

func randPoly(rng *rand.Rand, n int) field.Poly {
	p := make(field.Poly, n)
	for i := range p {
		p[i] = field.Reduce(rng.Uint64())
	}
	return p
}

// randMatrix is a random flat n×n element matrix.
func randMatrix(rng *rand.Rand, n int) []field.Elem {
	return randPoly(rng, n*n)
}

// randBools is a random flat n×n bool matrix.
func randBools(rng *rand.Rand, n int) []bool {
	m := make([]bool, n*n)
	for i := range m {
		m[i] = rng.Intn(2) == 0
	}
	return m
}

func BenchmarkEncodeEcho(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	m := &gvss.EchoMsg{Vals: randMatrix(rng, 10), Has: randBools(rng, 10)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeEcho(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	m := &gvss.EchoMsg{Vals: randMatrix(rng, 10), Has: randBools(rng, 10)}
	buf, err := Encode(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAppendToMatchesEncode verifies the pooled append API produces the
// same bytes as Encode, after an arbitrary prefix, reusing the buffer.
func TestAppendToMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	msgs := []proto.Message{
		&gvss.EchoMsg{Vals: randMatrix(rng, 5), Has: randBools(rng, 5)},
		core.FullClockMsg{V: 123456},
		proto.Envelope{Child: 3, Inner: core.BitMsg{B: 1}},
	}
	buf := []byte("prefix")
	for _, m := range msgs {
		want, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendTo(buf, m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:len(buf)], buf) {
			t.Fatal("AppendTo clobbered the prefix")
		}
		if !bytes.Equal(got[len(buf):], want) {
			t.Fatalf("AppendTo bytes differ from Encode for %T", m)
		}
		// Sequential appends into one arena must stay self-consistent.
		buf = got
	}
}

// TestAppendToUnregistered confirms the error path leaves the caller
// able to roll back to its previous length.
func TestAppendToUnregistered(t *testing.T) {
	type fake struct{ proto.Message }
	buf := []byte{1, 2, 3}
	got, err := AppendTo(buf, fake{})
	if err == nil {
		t.Fatal("expected error for unregistered type")
	}
	if !bytes.Equal(got[:3], []byte{1, 2, 3}) {
		t.Fatal("prefix corrupted on error")
	}
}

// TestSizeMatchesEncode checks Size agrees with Encode across messages.
func TestSizeMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		m := &gvss.VoteMsg{OK: randBools(rng, 1+rng.Intn(8))}
		want, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		if got := Size(m); got != len(want) {
			t.Fatalf("Size = %d, want %d", got, len(want))
		}
	}
}
