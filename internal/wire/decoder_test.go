package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/field"
	"ssbyzclock/internal/gvss"
	"ssbyzclock/internal/pool"
	"ssbyzclock/internal/proto"
)

// splitMsgs reads data as a sequence of uvarint-length-prefixed
// messages; once a prefix is unreadable or overruns the input, the rest
// is one final message.
func splitMsgs(data []byte) [][]byte {
	var out [][]byte
	for len(data) > 0 {
		n, k := binary.Uvarint(data)
		if k <= 0 || n > uint64(len(data)-k) {
			return append(out, data)
		}
		out = append(out, data[k:k+int(n)])
		data = data[k+int(n):]
	}
	return out
}

// joinMsgs is splitMsgs' inverse.
func joinMsgs(msgs ...[]byte) []byte {
	var out []byte
	for _, m := range msgs {
		out = binary.AppendUvarint(out, uint64(len(m)))
		out = append(out, m...)
	}
	return out
}

// requireFullSlices fails unless every slice reachable from v has its
// capacity equal to its length: a decoded row must not be able to grow
// into its neighbour.
func requireFullSlices(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Ptr, reflect.Interface:
		if !v.IsNil() {
			requireFullSlices(t, v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			requireFullSlices(t, v.Field(i))
		}
	case reflect.Slice:
		if v.Cap() != v.Len() {
			t.Fatalf("decoded %s has cap %d > len %d", v.Type(), v.Cap(), v.Len())
		}
		for i := 0; i < v.Len(); i++ {
			requireFullSlices(t, v.Index(i))
		}
	}
}

// FuzzDecoder holds the arena to the fresh-memory decoder on arbitrary
// input, read as a beat of length-prefixed messages decoded twice by one
// Decoder with a Reset between: each message errors exactly when Decode
// does and otherwise re-encodes to the same bytes; every slice it holds
// is full; and at the end of each beat every message decoded in it still
// re-encodes to its original bytes, so no two share memory.
func FuzzDecoder(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	var all [][]byte
	for _, m := range registeredSamples(rng) {
		b, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		all = append(all, b)
	}
	f.Add(joinMsgs(all...))
	f.Add(joinMsgs(all[1], all[1][:len(all[1])-1], all[0]))
	var d Decoder
	f.Fuzz(func(t *testing.T, data []byte) {
		for beat := 0; beat < 2; beat++ {
			var kept []proto.Message
			var encs [][]byte
			for _, b := range splitMsgs(data) {
				m, err := d.Decode(b)
				ref, refErr := Decode(b)
				if (err == nil) != (refErr == nil) {
					t.Fatalf("beat %d: Decoder error %v, Decode error %v", beat, err, refErr)
				}
				if err != nil {
					continue
				}
				enc := mustEncode(t, m)
				if !bytes.Equal(enc, mustEncode(t, ref)) {
					t.Fatalf("beat %d: %T re-encodes differently from Decode's %T", beat, m, ref)
				}
				requireFullSlices(t, reflect.ValueOf(m))
				kept, encs = append(kept, m), append(encs, enc)
			}
			for i, m := range kept {
				if !bytes.Equal(mustEncode(t, m), encs[i]) {
					t.Fatalf("beat %d: message %d (%T) changed while the beat decoded later ones", beat, i, m)
				}
			}
			d.Reset()
		}
	})
}

// receivedBeat drives n unpooled nodes of the benchmark's stack (the
// shared-layout clock sync stack over the FM coin, k=64) to steady state
// and returns the encoded messages node 0 receives in one beat.
func receivedBeat(t *testing.T, n, f int) [][]byte {
	t.Helper()
	nodes := make([]proto.Protocol, n)
	newNode := core.NewClockSyncProtocolLayout(64, coin.FMFactory{}, core.LayoutShared)
	for i := range nodes {
		nodes[i] = newNode(proto.Env{N: n, F: f, ID: i, Rng: rand.New(rand.NewSource(int64(1000 + i)))})
	}
	sends := make([][]proto.Send, n)
	for beat := uint64(0); ; beat++ {
		for i, nd := range nodes {
			sends[i] = nd.Compose(beat)
		}
		if beat == 24 {
			var out [][]byte
			for _, ss := range sends {
				for _, s := range ss {
					if s.To == 0 || s.To == proto.Broadcast {
						out = append(out, mustEncode(t, s.Msg))
					}
				}
			}
			return out
		}
		for to, nd := range nodes {
			var inbox []proto.Recv
			for from, ss := range sends {
				for _, s := range ss {
					if s.To == to || s.To == proto.Broadcast {
						inbox = append(inbox, proto.Recv{From: from, Msg: s.Msg})
					}
				}
			}
			nd.Deliver(beat, inbox)
		}
	}
}

// TestDecoderSteadyStateAllocs pins the arena's point: a warm Decoder
// decodes a whole received beat of the benchmark's stack, at n=4 and
// n=16, allocating at most once per core.ProposeMsg — the one message
// that stays value-boxed and is too wide for the runtime's small-value
// boxes. Everything else comes from the slabs.
func TestDecoderSteadyStateAllocs(t *testing.T) {
	for _, sz := range []struct{ n, f int }{{4, 1}, {16, 5}} {
		beat := receivedBeat(t, sz.n, sz.f)
		proposes := 0
		for _, b := range beat {
			m, err := Decode(b)
			if err != nil {
				t.Fatal(err)
			}
			for env, ok := proto.AsEnvelope(m); ok; env, ok = proto.AsEnvelope(m) {
				m = env.Inner
			}
			if _, ok := m.(core.ProposeMsg); ok {
				proposes++
			}
		}
		var d Decoder
		decodeBeat := func() {
			for _, b := range beat {
				if _, err := d.Decode(b); err != nil {
					t.Fatal(err)
				}
			}
			d.Reset()
		}
		decodeBeat() // grows the slabs, then right-sizes them
		for _, b := range beat {
			if _, err := d.Decode(b); err != nil {
				t.Fatal(err)
			}
		}
		elemBytes := d.elems.total * int(unsafe.Sizeof(field.Elem(0)))
		d.Reset()
		allocs := testing.AllocsPerRun(20, decodeBeat)
		t.Logf("n=%d: %d messages, %d ProposeMsgs, %d B of field elements, %.1f allocs per warm beat",
			sz.n, len(beat), proposes, elemBytes, allocs)
		if allocs > float64(proposes) {
			t.Fatalf("n=%d: warm Decoder allocates %.1f times per beat, want at most %d (one per ProposeMsg)", sz.n, allocs, proposes)
		}
	}
}

// TestDecoderPoisonsOnReset: once the pool is in poison mode, a message
// kept across Reset reads poison — out-of-range elements, true bools,
// out-of-range accept ids, envelopes no router accepts — instead of its
// old, plausible contents; off poison mode it still reads them (until the
// arena is carved again).
func TestDecoderPoisonsOnReset(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	msgs := []proto.Message{
		gvss.ShareMsg{Rows: []field.Poly{randPoly(rng, 3), randPoly(rng, 3)}},
		gvss.EchoMsg{Vals: randMatrix(rng, 4), Has: randBools(rng, 4)},
		coin.AcceptMsg{Set: []uint16{0, 2, 3}},
		proto.Envelope{Child: 1, Inner: proto.Envelope{Child: 3, Inner: core.BitMsg{B: 1}}},
	}
	for _, poison := range []bool{false, true} {
		pl := &pool.Node{}
		pl.SetPoison(poison)
		d := Decoder{Pool: pl}
		var kept []proto.Message
		for _, m := range msgs {
			got, err := d.Decode(mustEncode(t, m))
			if err != nil {
				t.Fatal(err)
			}
			kept = append(kept, got)
		}
		d.Reset()
		if !poison {
			for i, m := range kept {
				if !bytes.Equal(mustEncode(t, m), mustEncode(t, msgs[i])) {
					t.Fatalf("without poison, kept message %d changed at Reset", i)
				}
			}
			continue
		}
		s, _ := gvss.AsShare(kept[0])
		e, _ := gvss.AsEcho(kept[1])
		a, _ := coin.AsAccept(kept[2])
		if env, _ := proto.AsEnvelope(kept[3]); env.Child != ^uint8(0) || env.Inner != nil {
			t.Fatalf("kept envelope reads child %d, inner %v, not poison", env.Child, env.Inner)
		}
		var elems []field.Elem
		for _, row := range s.Rows {
			elems = append(elems, row...)
		}
		for _, row := range e.Vals {
			elems = append(elems, row...)
		}
		for i, v := range elems {
			if v != poisonElem {
				t.Fatalf("kept element %d reads %d, not poison", i, v)
			}
		}
		for i, row := range e.Has {
			for j, h := range row {
				if !h {
					t.Fatalf("kept echo bit [%d][%d] reads false, not poison", i, j)
				}
			}
		}
		for i, id := range a.Set {
			if id != ^uint16(0) {
				t.Fatalf("kept accept id %d reads %d, not poison", i, id)
			}
		}
	}
}

// slabBytes is what s holds between beats.
func slabBytes[T any](s *slab[T]) int {
	var zero T
	return cap(s.buf) * int(unsafe.Sizeof(zero))
}

// TestDecoderFloodIsNotRetained: one oversize beat — a Byzantine flood —
// leaves every slab holding at most arenaCap after its Reset, and an
// ordinary beat that grew the arena leaves one chunk of its total plus
// an eighth.
func TestDecoderFloodIsNotRetained(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	small := mustEncode(t, gvss.RecoverMsg{Shares: randMatrix(rng, 16), HasRow: randBools(rng, 16)})
	// 800×800 zero elements: one wire byte each, 5 MiB decoded.
	const side = 800
	vals := make([][]field.Elem, side)
	for i := range vals {
		vals[i] = make([]field.Elem, side)
	}
	flood := mustEncode(t, gvss.EchoMsg{Vals: vals, Has: randBools(rng, side)})

	var d Decoder
	for i := 0; i < 40; i++ {
		if _, err := d.Decode(small); err != nil {
			t.Fatal(err)
		}
	}
	total := d.elems.total
	d.Reset()
	if want := total + total/8; cap(d.elems.buf) != want {
		t.Fatalf("after a beat of %d elements the element slab holds %d, want %d", total, cap(d.elems.buf), want)
	}

	if _, err := d.Decode(flood); err != nil {
		t.Fatal(err)
	}
	if d.elems.total*8 <= arenaCap {
		t.Fatalf("the flood decoded only %d B of elements; it must exceed arenaCap %d", d.elems.total*8, arenaCap)
	}
	d.Reset()
	for name, b := range map[string]int{
		"elems": slabBytes(&d.elems), "bools": slabBytes(&d.bools), "polys": slabBytes(&d.polys),
		"elemRows": slabBytes(&d.elemRows), "boolRows": slabBytes(&d.boolRows), "sets": slabBytes(&d.sets),
		"envs": slabBytes(&d.envs), "shares": slabBytes(&d.shares), "echoes": slabBytes(&d.echoes),
		"votes": slabBytes(&d.votes), "recovers": slabBytes(&d.recovers), "accepts": slabBytes(&d.accepts),
	} {
		if b > arenaCap {
			t.Fatalf("after the flood's Reset the %s slab retains %d B, above arenaCap %d", name, b, arenaCap)
		}
	}
	if cap(d.elems.buf) != 0 || len(d.elems.retired) != 0 {
		t.Fatalf("the flooded element slab was retained: cap %d, %d retired chunks", cap(d.elems.buf), len(d.elems.retired))
	}
	// And the arena still decodes afterwards.
	if m, err := d.Decode(small); err != nil || !bytes.Equal(mustEncode(t, m), small) {
		t.Fatalf("decode after the flood: %v", err)
	}
}
