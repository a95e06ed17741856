package faultnet_test

import (
	"testing"
	"time"

	"ssbyzclock/internal/faultnet"
	"ssbyzclock/internal/net"
	"ssbyzclock/internal/wire"
)

func TestParse(t *testing.T) {
	cases := []struct {
		name string
		ok   bool
	}{
		{"none", true}, {"loss30", true}, {"dup15", true}, {"delay10", true},
		{"reorder", true}, {"partition", true}, {"loss20+reorder", true},
		{"loss20+dup5+delay5+partition", true},
		{"loss101", false}, {"loss-1", false}, {"lossy", false}, {"bogus", false},
	}
	for _, c := range cases {
		s, err := faultnet.Parse(c.name)
		if c.ok && err != nil {
			t.Errorf("Parse(%q): %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("Parse(%q) accepted, got %+v", c.name, s)
		}
	}
	s, _ := faultnet.Parse("loss20+reorder")
	if s.LossPct != 20 || !s.Reorder {
		t.Fatalf("combo parse: %+v", s)
	}
}

func TestHashScheduleIsPureAndSeeded(t *testing.T) {
	a := &faultnet.HashSchedule{Seed: 11, LossPct: 30, DupPct: 10, DelayPct: 10}
	b := &faultnet.HashSchedule{Seed: 11, LossPct: 30, DupPct: 10, DelayPct: 10}
	c := &faultnet.HashSchedule{Seed: 12, LossPct: 30, DupPct: 10, DelayPct: 10}
	same, diff := 0, 0
	for beat := uint64(0); beat < 50; beat++ {
		for from := 0; from < 4; from++ {
			for to := 0; to < 4; to++ {
				va, vb, vc := a.Verdict(beat, from, to), b.Verdict(beat, from, to), c.Verdict(beat, from, to)
				if va != vb {
					t.Fatalf("impure: %+v vs %+v at (%d,%d,%d)", va, vb, beat, from, to)
				}
				if va == vc {
					same++
				} else {
					diff++
				}
			}
		}
	}
	if diff == 0 {
		t.Fatal("seed has no effect on verdicts")
	}
	// Rates land near the target on a big sample.
	drops := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if a.Verdict(uint64(i), i%7, (i+1)%7).Drop {
			drops++
		}
	}
	if pct := 100 * drops / trials; pct < 25 || pct > 35 {
		t.Fatalf("loss rate %d%% for LossPct=30", pct)
	}
}

func TestPartitionCutsCrossLinksOnly(t *testing.T) {
	s, err := faultnet.Parse("partition")
	if err != nil {
		t.Fatal(err)
	}
	// Inside the window even<->odd drops, even<->even survives.
	if !s.Verdict(8, 0, 1).Drop {
		t.Fatal("cross-partition link not cut")
	}
	if s.Verdict(8, 0, 2).Drop {
		t.Fatal("same-side link cut")
	}
	// Outside the window everything flows: healed.
	if s.Verdict(5, 0, 1).Drop || s.Verdict(12, 0, 1).Drop {
		t.Fatal("partition active outside its window")
	}
}

func TestShuffleOrder(t *testing.T) {
	order := faultnet.ShuffleOrder(99, 10)
	seen := make([]bool, 10)
	for _, i := range order {
		if i < 0 || i >= 10 || seen[i] {
			t.Fatalf("not a permutation: %v", order)
		}
		seen[i] = true
	}
	again := faultnet.ShuffleOrder(99, 10)
	for i := range order {
		if order[i] != again[i] {
			t.Fatal("shuffle not deterministic")
		}
	}
	if faultnet.ShuffleOrder(0, 0) == nil || len(faultnet.ShuffleOrder(7, 1)) != 1 {
		t.Fatal("degenerate sizes mishandled")
	}
}

// testBatch is a one-tenant batch payload holding a single message.
var testBatch = wire.AppendBatchPayload(nil, 0, [][]wire.BatchMsg{{{Seq: 0, Payload: []byte{1, 2, 3}}}})

// sendFrame pushes one beat frame — the link-beat (ep, to, beat), part
// `part` of `parts` — through a wrapped endpoint.
func sendFrame(t *testing.T, ep net.Endpoint, to int, beat uint64, part, parts int) {
	t.Helper()
	if err := ep.Send(to, wire.AppendFrame(nil, wire.Frame{
		Kind: wire.KindBatch, From: ep.ID(), Beat: beat, DeliveryBeat: beat,
		Seq: uint32(part), Parts: uint16(parts), Payload: testBatch,
	})); err != nil {
		t.Fatal(err)
	}
}

// batchMsgs counts the messages a frame carries (-1 if its payload is
// not a well-formed batch).
func batchMsgs(f wire.Frame) int {
	n := 0
	if err := wire.DecodeBatchPayload(f.Payload, 1, func(int, uint32, []byte) { n++ }); err != nil {
		return -1
	}
	return n
}

func drain(ep net.Endpoint, wait time.Duration) []wire.Frame {
	var got []wire.Frame
	deadline := time.After(wait)
	for {
		select {
		case p := <-ep.Recv():
			if f, err := wire.DecodeFrame(p.Data); err == nil {
				got = append(got, f)
			}
		case <-deadline:
			return got
		}
	}
}

// TestWrapInjectsScheduleFaults pushes two-part link-beats through a
// lossy, duplicating, delaying wrapper twice: with the beat barrier
// faultable (a Drop forwards nothing) and unfaultable (a Drop forwards
// the frame stripped of its messages). Either way every part of a
// link-beat shares the link-beat's verdict, Delay re-tags DeliveryBeat,
// and Dup adds a Copy+1 frame ahead of the original.
func TestWrapInjectsScheduleFaults(t *testing.T) {
	for _, faultMarkers := range []bool{true, false} {
		tr := net.NewChanTransport(2, 1024)
		raw0, _ := tr.Endpoint(0)
		ep1, _ := tr.Endpoint(1)
		sched := &faultnet.HashSchedule{Seed: 3, LossPct: 30, DupPct: 20, DelayPct: 20}
		ep0 := faultnet.Wrap(raw0, sched, faultnet.WrapConfig{FaultMarkers: faultMarkers})

		const beats, parts = 80, 2
		sent := 0
		for beat := uint64(0); beat < beats; beat++ {
			for part := 0; part < parts; part++ {
				sendFrame(t, ep0, 1, beat, part, parts)
				sent++
			}
		}
		got := drain(ep1, 200*time.Millisecond)
		st := ep0.Stats()
		if st.Dropped == 0 || st.Duplicated == 0 || st.Delayed == 0 {
			t.Fatalf("expected every fault kind on %d sends: %+v", sent, st)
		}
		want := sent + int(st.Duplicated)
		if faultMarkers {
			want -= int(st.Dropped)
		}
		if len(got) != want {
			t.Fatalf("FaultMarkers=%v: got %d frames, want %d (%+v)", faultMarkers, len(got), want, st)
		}
		stripped, lastCopy := 0, map[[2]uint64]uint8{}
		for _, f := range got {
			v := sched.Verdict(f.Beat, 0, 1)
			switch {
			case v.Drop && faultMarkers:
				t.Fatalf("dropped frame delivered: %+v", f)
			case v.Drop:
				stripped++
				if batchMsgs(f) != 0 || f.Copy != 0 || f.DeliveryBeat != f.Beat || f.Parts != parts {
					t.Fatalf("dropped frame must pass as a message-less original: %+v", f)
				}
				continue
			}
			if batchMsgs(f) != 1 || f.Parts != parts {
				t.Fatalf("surviving frame altered: %+v", f)
			}
			if f.DeliveryBeat != f.Beat+v.Delay {
				t.Fatalf("frame %+v: want delivery %d", f, f.Beat+v.Delay)
			}
			if f.Copy > 0 && !v.Dup {
				t.Fatalf("copy without dup verdict: %+v", f)
			}
			// The channel transport is FIFO, so the order of arrival is the
			// order of sending: per part, the duplicate, then the original.
			key := [2]uint64{f.Beat, uint64(f.Seq)}
			if prev, seen := lastCopy[key]; seen && f.Copy >= prev {
				t.Fatalf("part %v: copy %d sent after copy %d", key, f.Copy, prev)
			}
			lastCopy[key] = f.Copy
		}
		if !faultMarkers && stripped != int(st.Dropped) {
			t.Fatalf("%d stripped frames for %d drops", stripped, st.Dropped)
		}
		ep0.Close()
		ep1.Close()
	}
}

// TestWrapExemptAndMarkers: under total loss with the barrier
// unfaultable, a faulted link still delivers every frame — emptied —
// while an exempt destination and the self-link get theirs intact; with
// the barrier faultable the faulted link delivers nothing at all.
func TestWrapExemptAndMarkers(t *testing.T) {
	for _, faultMarkers := range []bool{false, true} {
		tr := net.NewChanTransport(3, 256)
		ep0raw, _ := tr.Endpoint(0)
		ep1, _ := tr.Endpoint(1)
		ep2, _ := tr.Endpoint(2)
		ep0 := faultnet.Wrap(ep0raw, &faultnet.HashSchedule{LossPct: 100}, faultnet.WrapConfig{
			FaultMarkers: faultMarkers,
			Exempt:       []bool{false, false, true},
		})
		for beat := uint64(0); beat < 5; beat++ {
			for to := 0; to < 3; to++ {
				sendFrame(t, ep0, to, beat, 0, 1)
			}
		}
		to0, to1, to2 := drain(ep0, 50*time.Millisecond), drain(ep1, 50*time.Millisecond), drain(ep2, 50*time.Millisecond)
		wantTo1 := 5
		if faultMarkers {
			wantTo1 = 0
		}
		if len(to1) != wantTo1 {
			t.Fatalf("FaultMarkers=%v: faulted link delivered %d frames, want %d", faultMarkers, len(to1), wantTo1)
		}
		for _, f := range to1 {
			if batchMsgs(f) != 0 {
				t.Fatalf("faulted link delivered a message: %+v", f)
			}
		}
		if st := ep0.Stats(); st.Dropped != 5 {
			t.Fatalf("FaultMarkers=%v: %d drops counted, want 5", faultMarkers, st.Dropped)
		}
		for name, got := range map[string][]wire.Frame{"self-link": to0, "exempt destination": to2} {
			if len(got) != 5 {
				t.Fatalf("%s got %d/5 frames", name, len(got))
			}
			for _, f := range got {
				if batchMsgs(f) != 1 {
					t.Fatalf("%s frame lost its message: %+v", name, f)
				}
			}
		}
		ep0.Close()
		ep1.Close()
		ep2.Close()
	}
}

func TestWrapAttemptLossIsPerAttempt(t *testing.T) {
	tr := net.NewChanTransport(2, 4096)
	raw0, _ := tr.Endpoint(0)
	ep1, _ := tr.Endpoint(1)
	ep0 := faultnet.Wrap(raw0, faultnet.None, faultnet.WrapConfig{
		AttemptLossPct: 50, AttemptSeed: 9,
	})
	defer func() { ep0.Close(); ep1.Close() }()
	// Retransmit the SAME frame many times; per-attempt loss must let
	// some attempts through (schedule loss would kill all or none).
	for i := 0; i < 64; i++ {
		sendFrame(t, ep0, 1, 7, 0, 1)
	}
	got := drain(ep1, 50*time.Millisecond)
	st := ep0.Stats()
	if st.AttemptLost == 0 || len(got) == 0 {
		t.Fatalf("per-attempt loss: %d lost, %d delivered of 64", st.AttemptLost, len(got))
	}
	if int(st.AttemptLost)+len(got) != 64 {
		t.Fatalf("attempts unaccounted: %d lost + %d delivered != 64", st.AttemptLost, len(got))
	}
}
