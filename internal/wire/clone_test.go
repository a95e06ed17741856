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

// registeredSamples builds one randomized instance of every registered
// message type (the codec's full type universe), nested envelopes
// included.
func registeredSamples(rng *rand.Rand) []proto.Message {
	n := 2 + rng.Intn(5)
	rows := make([]field.Poly, n)
	for i := range rows {
		rows[i] = randPoly(rng, 1+rng.Intn(4))
	}
	return []proto.Message{
		&gvss.ShareMsg{Rows: rows},
		&gvss.EchoMsg{Vals: randMatrix(rng, n), Has: randBools(rng, n)},
		&gvss.VoteMsg{OK: randBools(rng, n)},
		&gvss.RecoverMsg{Shares: randMatrix(rng, n), HasRow: randBools(rng, n)},
		&coin.AcceptMsg{Set: []uint16{uint16(rng.Intn(100)), uint16(rng.Intn(100))}},
		core.TwoClockMsg{V: uint8(rng.Intn(3))},
		core.FullClockMsg{V: rng.Uint64() >> 1},
		&core.ProposeMsg{V: rng.Uint64() >> 1, Bot: rng.Intn(2) == 0},
		core.BitMsg{B: byte(rng.Intn(2))},
		baseline.ClockMsg{V: rng.Uint64() >> 1},
		baseline.PhaseProposeMsg{V: rng.Uint64() >> 1, Bot: rng.Intn(2) == 0},
		baseline.PhaseBitMsg{B: byte(rng.Intn(2))},
		baseline.KingMsg{V: rng.Uint64() >> 1},
		proto.Envelope{Child: uint8(rng.Intn(8)), Inner: &gvss.VoteMsg{OK: randBools(rng, n)}},
		proto.Envelope{Child: 3, Inner: proto.Envelope{Child: 1, Inner: core.BitMsg{B: 1}}},
	}
}

// mutateMessage flips every addressable slice element reachable from m
// (via reflection, so it covers future message fields automatically).
// Returns the number of cells flipped.
func mutateMessage(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Ptr, reflect.Interface:
		if v.IsNil() {
			return 0
		}
		return mutateMessage(v.Elem())
	case reflect.Struct:
		total := 0
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() || f.Kind() == reflect.Slice || f.Kind() == reflect.Interface {
				total += mutateMessage(f)
			}
		}
		return total
	case reflect.Slice:
		total := 0
		for i := 0; i < v.Len(); i++ {
			total += mutateMessage(v.Index(i))
		}
		return total
	case reflect.Bool:
		if v.CanSet() {
			v.SetBool(!v.Bool())
			return 1
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if v.CanSet() {
			v.SetUint(v.Uint() ^ 1)
			return 1
		}
	}
	return 0
}

func mustEncode(t testing.TB, m proto.Message) []byte {
	t.Helper()
	b, err := Encode(m)
	if err != nil {
		t.Fatalf("encode %T: %v", m, err)
	}
	return b
}

// assertCloneContract checks the three clauses of the deep-copy
// contract on one message: semantic equality (identical wire form),
// structural equality, and alias-freedom in both directions.
func assertCloneContract(t testing.TB, m proto.Message) {
	t.Helper()
	orig := mustEncode(t, m)
	c, err := Clone(m)
	if err != nil {
		t.Fatalf("clone %T: %v", m, err)
	}
	if got := mustEncode(t, c); !bytes.Equal(got, orig) {
		t.Fatalf("%T: clone encodes differently", m)
	}
	// Decode of the original bytes is the canonical form; the
	// clone must equal it structurally.
	canon, err := Decode(orig)
	if err != nil {
		t.Fatalf("decode %T: %v", m, err)
	}
	if !reflect.DeepEqual(c, canon) {
		t.Fatalf("%T: clone differs structurally from canonical decode:\n%#v\nvs\n%#v", m, c, canon)
	}
	// Mutate the clone through every reachable cell: the original's wire
	// form must not move (clone holds no aliases into m).
	mutateMessage(reflect.ValueOf(&c).Elem())
	if got := mustEncode(t, m); !bytes.Equal(got, orig) {
		t.Fatalf("%T: mutating the clone changed the original (aliased memory)", m)
	}
	// And vice versa: a fresh clone must be immune to mutations of the
	// original.
	c2, err := Clone(m)
	if err != nil {
		t.Fatal(err)
	}
	before := mustEncode(t, c2)
	mutateMessage(reflect.ValueOf(&m).Elem())
	if got := mustEncode(t, c2); !bytes.Equal(got, before) {
		t.Fatalf("%T: mutating the original changed the clone (aliased memory)", m)
	}
}

// TestCloneEveryRegisteredType pins the contract across the codec's full
// type universe with many random shapes.
func TestCloneEveryRegisteredType(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		for _, m := range registeredSamples(rng) {
			assertCloneContract(t, m)
		}
	}
	// Unregistered types must error, not silently alias.
	if _, err := Clone(fakeCloneMsg{}); err == nil {
		t.Fatal("clone of unregistered type did not error")
	}
}

type fakeCloneMsg struct{}

func (fakeCloneMsg) Kind() string { return "fake" }

// FuzzCloneRoundTrip drives the same contract from raw bytes: any input
// the codec accepts must clone into a deeply-equal, alias-free copy.
func FuzzCloneRoundTrip(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for _, m := range registeredSamples(rng) {
		b, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return // malformed input is the codec's problem, not Clone's
		}
		assertCloneContract(t, m)
	})
}
