package wire

import (
	"encoding/binary"
	"fmt"
)

// Frame is the transport envelope of the networked runtime (package
// noderuntime): every datagram or stream record that crosses a
// net.Transport is one encoded Frame. The paper's model is a beat
// system — at beat r node p sends node q its beat-r messages, all of
// which arrive before beat r+1 — so the wire unit is the link-beat:
// everything one sender has for one receiver at one beat travels as ONE
// KindBatch frame (split into parts only when it outgrows a datagram),
// and there is no global clock on the wire, only frames:
//
//   - From is the sender's node id. Transports that authenticate the
//     peer (in-proc channels, TCP connections) cross-check it; UDP
//     cannot, which the model permits (a Byzantine sender owns its
//     traffic anyway, and honest ids are checked against the transport
//     where possible).
//   - Beat is the sender's beat when the messages were composed.
//   - DeliveryBeat >= Beat is the beat the messages are due in a
//     receiver's inbox. It differs from Beat only when a fault schedule
//     (package faultnet) delayed the frame by whole beats.
//   - Parts and Seq (KindBatch): a link-beat too large for one datagram
//     is cut into Parts self-contained part frames; Seq < Parts is this
//     frame's part index. Nearly always Parts is 1 and Seq 0. The
//     messages' own sequence numbers — position in the sender's compose
//     order, or in the adversary's global send order, which is what
//     receivers sort a beat's inbox by to replay the lockstep engine
//     exactly — travel inside the batch payload (batch.go).
//   - Copy distinguishes fault-injected duplicates (Copy=1,2,...) from
//     retransmissions (same Copy): receivers deduplicate on
//     (From, Beat, Seq, Copy) with the first arrival winning, so a
//     retried frame delivers once while an injected duplicate delivers
//     its messages twice.
//
// There is no separate beat-complete marker: the ARRIVAL of a sender's
// beat-r frame (all Parts of the original, Copy 0) is that sender's
// statement that its beat-r traffic is complete, counted at Beat even
// when the messages inside are due later. It is the runtime's pulse — beat
// advancement is derived from frame arrival — which is why a node
// sends every peer a frame every beat, empty or not, and why a fault
// wrapper that must not lose the barrier forwards a dropped frame with
// its messages stripped instead of withholding it.
type Frame struct {
	Kind         byte
	From         int
	Beat         uint64
	DeliveryBeat uint64
	Seq          uint32
	Copy         uint8
	// Parts is the number of part frames the sender cut this link-beat
	// into (KindBatch only; AppendFrame writes 0 as 1).
	Parts uint16
	// Payload is a batch payload (KindBatch) or one wire-encoded message
	// (KindMsg). DecodeFrame aliases it into the input buffer; callers
	// that keep the frame beyond the buffer's life must copy it out.
	Payload []byte
}

// Frame kinds.
const (
	// KindMsg carries one wire-encoded protocol message and KindMark is
	// a payload-free beat marker: the per-message shape the runtime
	// spoke before link-beats were folded into KindBatch. No runtime
	// sends them any more; they stay decodable for recorded corpora and
	// the codec benchmarks.
	KindMsg  byte = 1
	KindMark byte = 2
	// KindBatch carries one link-beat: every message one sender has for
	// one receiver at one beat, for however many tenants the sender
	// hosts, as a batch payload (batch.go). Frames per node-beat are
	// therefore O(links) — independent of message and tenant counts —
	// and the frame-level metadata (Beat, DeliveryBeat, Copy) applies to
	// the whole link-beat: the fault schedule's verdicts are per (beat,
	// from, to), so a dropped, delayed or duplicated frame fares exactly
	// as each of its messages would have alone — the property the
	// differential harnesses pin.
	KindBatch byte = 3

	frameVersion byte = 1
)

// MaxFrameParts bounds the part count a frame may declare: far above
// any real link-beat (1024 datagrams), low enough that a corrupted
// varint cannot make a receiver wait for parts that will never exist.
const MaxFrameParts = 1 << 10

// AppendFrame appends f's encoding to buf and returns the extended
// slice. Layout: version, kind, then uvarints for from, beat, the
// delivery-beat delta and seq, the copy byte, for KindBatch the part
// count as a uvarint, and the payload (KindMsg and KindBatch, running
// to the end of the frame).
func AppendFrame(buf []byte, f Frame) []byte {
	buf = append(buf, frameVersion, f.Kind)
	buf = binary.AppendUvarint(buf, uint64(f.From))
	buf = binary.AppendUvarint(buf, f.Beat)
	delta := uint64(0)
	if f.DeliveryBeat > f.Beat {
		delta = f.DeliveryBeat - f.Beat
	}
	buf = binary.AppendUvarint(buf, delta)
	buf = binary.AppendUvarint(buf, uint64(f.Seq))
	buf = append(buf, f.Copy)
	if f.Kind == KindBatch {
		buf = binary.AppendUvarint(buf, uint64(max(f.Parts, 1)))
	}
	if f.Kind == KindMsg || f.Kind == KindBatch {
		buf = append(buf, f.Payload...)
	}
	return buf
}

// maxFrameFrom bounds the sender id a frame may claim: far above any
// real cluster size, low enough that a corrupted varint cannot turn
// into a giant table index downstream.
const maxFrameFrom = 1 << 20

// DecodeFrame parses one frame. It never panics on malformed input —
// Byzantine peers and lossy networks own the wire — and returns
// ErrMalformed (wrapped) for anything undecodable: truncation, unknown
// version or kind, out-of-range ids, a part index at or beyond a part
// count in [1, MaxFrameParts], or a payload on a marker. The returned
// Payload aliases data.
func DecodeFrame(data []byte) (Frame, error) {
	var f Frame
	if len(data) < 2 {
		return f, fmt.Errorf("%w: frame too short", ErrMalformed)
	}
	if data[0] != frameVersion {
		return f, fmt.Errorf("%w: frame version %d", ErrMalformed, data[0])
	}
	f.Kind = data[1]
	if f.Kind != KindMsg && f.Kind != KindMark && f.Kind != KindBatch {
		return f, fmt.Errorf("%w: frame kind %d", ErrMalformed, f.Kind)
	}
	rest := data[2:]
	from, rest, err := getUvarint(rest)
	if err != nil || from > maxFrameFrom {
		return f, fmt.Errorf("%w: frame sender", ErrMalformed)
	}
	f.From = int(from)
	if f.Beat, rest, err = getUvarint(rest); err != nil {
		return f, fmt.Errorf("%w: frame beat", ErrMalformed)
	}
	delta, rest, err := getUvarint(rest)
	if err != nil || delta > 1<<32 {
		return f, fmt.Errorf("%w: frame delivery delta", ErrMalformed)
	}
	f.DeliveryBeat = f.Beat + delta
	seq, rest, err := getUvarint(rest)
	if err != nil || seq > 1<<32-1 {
		return f, fmt.Errorf("%w: frame seq", ErrMalformed)
	}
	f.Seq = uint32(seq)
	if len(rest) < 1 {
		return f, fmt.Errorf("%w: frame copy", ErrMalformed)
	}
	f.Copy = rest[0]
	rest = rest[1:]
	switch f.Kind {
	case KindBatch:
		parts, tail, err := getUvarint(rest)
		if err != nil || parts < 1 || parts > MaxFrameParts || seq >= parts {
			return f, fmt.Errorf("%w: frame part %d of %d", ErrMalformed, seq, parts)
		}
		f.Parts = uint16(parts)
		f.Payload = tail
	case KindMsg:
		f.Payload = rest
	case KindMark:
		if len(rest) != 0 {
			return f, fmt.Errorf("%w: marker with payload", ErrMalformed)
		}
	}
	return f, nil
}
