package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

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

// FuzzDecoder holds the pooled decoder to the fresh-memory one on
// arbitrary input, read as a beat of length-prefixed messages decoded
// twice by one Decoder with its pool's Recycle between: each message
// errors exactly when Decode does and otherwise re-encodes to the same
// bytes; every slice it holds is full; and at the end of each beat every
// message decoded in it still re-encodes to its original bytes, so no
// two share memory.
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
	for _, c := range nonSquareCases() {
		f.Add(c.data)
	}
	var pl pool.Node
	d := Decoder{Pool: &pl}
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
			pl.Recycle()
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

// TestDecoderSteadyStateAllocs pins the point of decoding into pool
// leases: a warm Decoder decodes a whole received beat of the
// benchmark's stack, at n=4 and n=16, without allocating — every
// message, proposals included, is carved from the pool's kinds.
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
			if _, ok := m.(*core.ProposeMsg); ok {
				proposes++
			}
		}
		if proposes == 0 {
			t.Fatalf("n=%d: the captured beat holds no proposal; pick a phase-1 beat", sz.n)
		}
		var pl pool.Node
		d := Decoder{Pool: &pl}
		wireBytes := 0
		for _, b := range beat {
			wireBytes += len(b)
		}
		decodeBeat := func() {
			for _, b := range beat {
				if _, err := d.Decode(b); err != nil {
					t.Fatal(err)
				}
			}
			pl.Recycle()
		}
		decodeBeat() // grows the kinds' chunks, then right-sizes them
		allocs := testing.AllocsPerRun(20, decodeBeat)
		t.Logf("n=%d: %d messages (%d wire bytes), %d ProposeMsgs, %.1f allocs per warm beat",
			sz.n, len(beat), wireBytes, proposes, allocs)
		if allocs != 0 {
			t.Fatalf("n=%d: warm Decoder allocates %.1f times per beat, want 0", sz.n, allocs)
		}
	}
}

// TestDecoderPoisonsOnRecycle: once the pool is in poison mode, a
// message kept across its Recycle reads poison — out-of-range elements,
// true bools, out-of-range accept ids, proposals of no clock value (a
// zero one would be a real proposal), envelopes no router accepts —
// instead of its old, plausible contents; off poison mode it still reads
// them (until the pool leases them again).
func TestDecoderPoisonsOnRecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	msgs := []proto.Message{
		&gvss.ShareMsg{Rows: []field.Poly{randPoly(rng, 3), randPoly(rng, 3)}},
		&gvss.EchoMsg{Vals: randMatrix(rng, 4), Has: randBools(rng, 4)},
		&coin.AcceptMsg{Set: []uint16{0, 2, 3}},
		proto.Envelope{Child: 1, Inner: proto.Envelope{Child: 3, Inner: core.BitMsg{B: 1}}},
		&core.ProposeMsg{V: 5},
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
		pl.Recycle()
		if !poison {
			for i, m := range kept {
				if !bytes.Equal(mustEncode(t, m), mustEncode(t, msgs[i])) {
					t.Fatalf("without poison, kept message %d changed at Recycle", i)
				}
			}
			continue
		}
		s := kept[0].(*gvss.ShareMsg)
		e := kept[1].(*gvss.EchoMsg)
		a := kept[2].(*coin.AcceptMsg)
		if env, _ := proto.AsEnvelope(kept[3]); env.Child != ^uint8(0) || env.Inner != nil {
			t.Fatalf("kept envelope reads child %d, inner %v, not poison", env.Child, env.Inner)
		}
		if p := kept[4].(*core.ProposeMsg); p.V != ^uint64(0) || p.Bot {
			t.Fatalf("kept proposal reads %+v, not poison", *p)
		}
		var elems []field.Elem
		for _, row := range s.Rows {
			elems = append(elems, row...)
		}
		elems = append(elems, e.Vals...)
		for i, v := range elems {
			if v != pool.PoisonElem {
				t.Fatalf("kept element %d reads %d, not poison", i, v)
			}
		}
		for i, h := range e.Has {
			if !h {
				t.Fatalf("kept echo bit %d reads false, not poison", i)
			}
		}
		for i, id := range a.Set {
			if id != ^uint16(0) {
				t.Fatalf("kept accept id %d reads %d, not poison", i, id)
			}
		}
	}
}

// encodingCase is one named hand-built encoding.
type encodingCase struct {
	name string
	data []byte
}

// nonSquareCases are matrix encodings a flat receiver cannot use: ragged
// rows, rows whose length is not the row count, and row counts whose
// square exceeds the remaining input.
func nonSquareCases() []encodingCase {
	okBools := []byte{2, 2, 0b11, 2, 0b01} // a valid 2×2 bool matrix
	return []encodingCase{
		{"echo ragged", append([]byte{tagEcho, 2, 2, 1, 2, 1, 3}, okBools...)},
		{"echo rows longer than the count", append([]byte{tagEcho, 2, 3, 1, 2, 3, 3, 4, 5, 6}, okBools...)},
		{"echo rows shorter than the count", append([]byte{tagEcho, 3, 2, 1, 2, 2, 3, 4, 2, 5, 6}, okBools...)},
		{"echo r² beyond the input", []byte{tagEcho, 100, 100, 1, 2, 3}},
		{"vote ragged", []byte{tagVote, 2, 2, 0b11, 1, 0b1}},
		{"vote row longer than the count", []byte{tagVote, 1, 2, 0b11}},
		{"vote r² beyond the input", []byte{tagVote, 64, 64, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"recover ragged shares", append([]byte{tagRecover, 2, 1, 7, 2, 8, 9}, okBools...)},
		{"recover ragged flags", []byte{tagRecover, 1, 1, 7, 1, 2, 0b11}},
	}
}

// TestDecodeRejectsNonSquare: both decode paths reject every hostile
// matrix shape, and Encode refuses a flat matrix whose length is not a
// perfect square.
func TestDecodeRejectsNonSquare(t *testing.T) {
	var pl pool.Node
	d := Decoder{Pool: &pl}
	for _, c := range nonSquareCases() {
		if m, err := Decode(c.data); err == nil {
			t.Fatalf("%s: Decode accepted %#v", c.name, m)
		}
		if m, err := d.Decode(c.data); err == nil {
			t.Fatalf("%s: Decoder.Decode accepted %#v", c.name, m)
		}
		pl.Recycle()
	}
	// The valid neighbour of the ragged cases decodes on both paths.
	good := []byte{tagEcho, 2, 2, 1, 2, 2, 3, 4, 2, 2, 0b11, 2, 0b01}
	want := &gvss.EchoMsg{Vals: []field.Elem{1, 2, 3, 4}, Has: []bool{true, true, true, false}}
	for _, dec := range []Decoder{{}, d} {
		if m, err := dec.Decode(good); err != nil || !reflect.DeepEqual(m, proto.Message(want)) {
			t.Fatalf("valid 2×2 echo: %#v, %v", m, err)
		}
	}
	for _, m := range []proto.Message{
		&gvss.EchoMsg{Vals: make([]field.Elem, 3), Has: make([]bool, 4)},
		&gvss.EchoMsg{Vals: make([]field.Elem, 4), Has: make([]bool, 8)},
		&gvss.VoteMsg{OK: make([]bool, 2)},
		&gvss.RecoverMsg{Shares: make([]field.Elem, 15), HasRow: make([]bool, 16)},
	} {
		if _, err := Encode(m); err == nil {
			t.Fatalf("Encode accepted non-square %#v", m)
		}
	}
}
