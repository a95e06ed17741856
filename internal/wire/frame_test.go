package wire_test

import (
	"bytes"
	"math/rand"
	"testing"

	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/wire"
)

// beatTraffic composes a few beats of a real ClockSync node and returns
// its sends encoded as frames — the corpus the networked runtime
// actually puts on the wire.
func beatTraffic(l core.Layout, t testing.TB) [][]byte {
	t.Helper()
	env := proto.Env{N: 4, F: 1, ID: 0, Rng: rand.New(rand.NewSource(7))}
	node := core.NewClockSyncLayout(env, 16, coin.FMFactory{}, false, l)
	var frames [][]byte
	for beat := uint64(0); beat < 6; beat++ {
		var seq uint32
		for _, s := range node.Compose(beat) {
			payload, err := wire.Encode(s.Msg)
			if err != nil {
				t.Fatalf("beat %d: %v", beat, err)
			}
			frames = append(frames, wire.AppendFrame(nil, wire.Frame{
				Kind: wire.KindMsg, From: 0, Beat: beat, DeliveryBeat: beat,
				Seq: seq, Payload: payload,
			}))
			seq++
		}
		frames = append(frames, wire.AppendFrame(nil, wire.Frame{
			Kind: wire.KindMark, From: 0, Beat: beat, DeliveryBeat: beat,
		}))
		node.Deliver(beat, nil)
	}
	return frames
}

func TestFrameRoundTrip(t *testing.T) {
	cases := []wire.Frame{
		{Kind: wire.KindMark, From: 3, Beat: 17, DeliveryBeat: 17},
		{Kind: wire.KindMsg, From: 0, Beat: 0, DeliveryBeat: 0, Seq: 9, Payload: []byte{10, 1}},
		{Kind: wire.KindMsg, From: 15, Beat: 1 << 40, DeliveryBeat: 1<<40 + 3, Seq: 1<<32 - 1, Copy: 2, Payload: []byte{7, 5}},
	}
	for _, f := range cases {
		enc := wire.AppendFrame(nil, f)
		got, err := wire.DecodeFrame(enc)
		if err != nil {
			t.Fatalf("%+v: %v", f, err)
		}
		if got.Kind != f.Kind || got.From != f.From || got.Beat != f.Beat ||
			got.DeliveryBeat != f.DeliveryBeat || got.Seq != f.Seq || got.Copy != f.Copy ||
			!bytes.Equal(got.Payload, f.Payload) {
			t.Fatalf("round trip: sent %+v got %+v", f, got)
		}
	}
}

func TestFrameRealTrafficRoundTrips(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			for i, enc := range beatTraffic(l, t) {
				f, err := wire.DecodeFrame(enc)
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				if f.Kind == wire.KindMsg {
					if _, err := wire.Decode(f.Payload); err != nil {
						t.Fatalf("frame %d payload: %v", i, err)
					}
				}
			}
		})
	}
}

func TestFrameRejectsMalformed(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			good := wire.AppendFrame(nil, wire.Frame{Kind: wire.KindMark, From: 1, Beat: 5, DeliveryBeat: 5})
			bad := [][]byte{
				nil,
				{},
				{1},
				{2, 1, 0, 0, 0, 0, 0},                // wrong version
				{1, 9, 0, 0, 0, 0, 0},                // unknown kind
				{1, 2, 0, 0, 0, 0},                   // truncated before copy byte
				append(append([]byte{}, good...), 1), // marker with payload
				{1, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0, 0, 0, 0}, // sender id overflow
			}
			for i, b := range bad {
				if _, err := wire.DecodeFrame(b); err == nil {
					t.Fatalf("case %d: decoded malformed frame %x", i, b)
				}
			}
			// Truncating a real frame at every boundary must error, never panic.
			msg := beatTraffic(l, t)[0]
			for cut := 0; cut < len(msg) && cut < 12; cut++ {
				wire.DecodeFrame(msg[:cut])
			}
		})
	}
}

// FuzzDecodeFrame fuzzes the frame decoder with a corpus seeded from
// real beat traffic (ClockSync compose output framed exactly as the
// networked runtime sends it). Decoding must never panic, and anything
// that decodes must re-encode to a frame that decodes to the same
// header and payload.
func FuzzDecodeFrame(f *testing.F) {
	for _, l := range core.Layouts {
		for _, enc := range beatTraffic(l, f) {
			f.Add(enc)
		}
	}
	f.Add([]byte{1, 2, 3, 4, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := wire.DecodeFrame(data)
		if err != nil {
			return
		}
		re := wire.AppendFrame(nil, fr)
		got, err := wire.DecodeFrame(re)
		if err != nil {
			t.Fatalf("re-encoded frame undecodable: %v", err)
		}
		if got.Kind != fr.Kind || got.From != fr.From || got.Beat != fr.Beat ||
			got.DeliveryBeat != fr.DeliveryBeat || got.Seq != fr.Seq || got.Copy != fr.Copy ||
			!bytes.Equal(got.Payload, fr.Payload) {
			t.Fatalf("frame not stable under re-encoding: %+v vs %+v", fr, got)
		}
		// A message frame's payload feeds wire.Decode on the receive path;
		// it must reject or decode without panicking, whatever the bytes.
		if fr.Kind == wire.KindMsg {
			wire.Decode(fr.Payload)
		}
	})
}
