// Package wire is the binary codec for every protocol message in this
// repository. The lockstep simulator passes messages as Go values for
// speed; the networked runtime (package noderuntime) serializes them
// through this codec, and the E8 experiment uses Size to report
// on-the-wire message complexity.
//
// Format: one tag byte selecting the concrete type, followed by the
// type's fields; integers are unsigned varints, field elements are
// varints of their canonical value, bool matrices are bit-packed
// row-major. Envelopes nest recursively. Decode never panics on
// malformed input — Byzantine peers own the wire.
//
// Two allocation strategies share the one decoder. Decode (the nil
// Decoder) builds every message in fresh memory that nothing else
// references — what Clone needs. A Decoder is a beat-scoped arena for
// receive paths: its messages are carved from slabs it reuses, and they
// are valid only until its next Reset, which the owner calls once the
// beat's last reader is done. That is the message-lifetime contract of
// package proto made concrete; a message that must live longer is
// proto.Clone'd.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ssbyzclock/internal/baseline"
	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/field"
	"ssbyzclock/internal/gvss"
	"ssbyzclock/internal/proto"
)

// ErrMalformed is returned by Decode for any undecodable input.
var ErrMalformed = errors.New("wire: malformed message")

// Type tags. Stable on the wire; append only.
const (
	tagEnvelope      byte = 1
	tagShare         byte = 2
	tagEcho          byte = 3
	tagVote          byte = 4
	tagRecover       byte = 5
	tagAccept        byte = 6
	tagTwoClock      byte = 7
	tagFullClock     byte = 8
	tagPropose       byte = 9
	tagBit           byte = 10
	tagBaseClock     byte = 11
	tagBasePropose   byte = 12
	tagBaseBit       byte = 13
	tagBaseKing      byte = 14
	maxNestingDepth       = 16
	maxSliceElements      = 1 << 20
)

// Encode serializes a message into a fresh buffer. It errors on
// unregistered concrete types.
func Encode(m proto.Message) ([]byte, error) {
	return AppendTo(nil, m)
}

// AppendTo appends m's encoding to buf and returns the extended slice
// (which may alias buf's backing array, like append). Hot paths — the
// engine's byte accounting, the networked runtime's beat frames —
// pass a recycled buffer and encode without allocating; on error the
// returned slice carries whatever prefix was written and must be
// discarded by the caller.
func AppendTo(buf []byte, m proto.Message) ([]byte, error) {
	err := encodeTo(&buf, m, 0)
	if err != nil {
		return buf, err
	}
	return buf, nil
}

// Size returns the encoded size in bytes, or 0 for unregistered types.
// Hot byte-accounting paths (the engine's CountBytes phase) use AppendTo
// with their own recycled buffers instead.
func Size(m proto.Message) int {
	b, err := Encode(m)
	if err != nil {
		return 0
	}
	return len(b)
}

func encodeTo(b *[]byte, m proto.Message, depth int) error {
	if depth > maxNestingDepth {
		return fmt.Errorf("wire: envelope nesting exceeds %d", maxNestingDepth)
	}
	switch v := m.(type) {
	case proto.Envelope:
		*b = append(*b, tagEnvelope, v.Child)
		return encodeTo(b, v.Inner, depth+1)
	case *proto.Envelope:
		*b = append(*b, tagEnvelope, v.Child)
		return encodeTo(b, v.Inner, depth+1)
	// The five bulk payload types come in value and pointer form: compose
	// paths send pointers into per-instance message slots (no interface
	// boxing on the hot path), while adversaries and tests hand-build
	// values. Both encode identically.
	case gvss.ShareMsg:
		encodeShare(b, v)
	case *gvss.ShareMsg:
		encodeShare(b, *v)
	case gvss.EchoMsg:
		encodeEcho(b, v)
	case *gvss.EchoMsg:
		encodeEcho(b, *v)
	case gvss.VoteMsg:
		encodeVote(b, v)
	case *gvss.VoteMsg:
		encodeVote(b, *v)
	case gvss.RecoverMsg:
		encodeRecover(b, v)
	case *gvss.RecoverMsg:
		encodeRecover(b, *v)
	case coin.AcceptMsg:
		encodeAccept(b, v)
	case *coin.AcceptMsg:
		encodeAccept(b, *v)
	case core.TwoClockMsg:
		*b = append(*b, tagTwoClock, v.V)
	case core.FullClockMsg:
		*b = append(*b, tagFullClock)
		putUvarint(b, v.V)
	case core.ProposeMsg:
		*b = append(*b, tagPropose, boolByte(v.Bot))
		putUvarint(b, v.V)
	case core.BitMsg:
		*b = append(*b, tagBit, v.B)
	case baseline.ClockMsg:
		*b = append(*b, tagBaseClock)
		putUvarint(b, v.V)
	case baseline.PhaseProposeMsg:
		*b = append(*b, tagBasePropose, boolByte(v.Bot))
		putUvarint(b, v.V)
	case baseline.PhaseBitMsg:
		*b = append(*b, tagBaseBit, v.B)
	case baseline.KingMsg:
		*b = append(*b, tagBaseKing)
		putUvarint(b, v.V)
	default:
		return fmt.Errorf("wire: unregistered message type %T", m)
	}
	return nil
}

// Decode parses a message, consuming the whole buffer, into fresh
// memory: it is the nil Decoder's Decode.
func Decode(data []byte) (proto.Message, error) {
	return (*Decoder)(nil).Decode(data)
}

// Decode parses a message, consuming the whole buffer. The nil Decoder
// builds fresh value forms; any other carves the message from its arena
// (see Decoder). Both accept and reject exactly the same inputs, and
// their results encode to the same bytes.
func (d *Decoder) Decode(data []byte) (proto.Message, error) {
	m, rest, err := d.decodeFrom(data, 0)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(rest))
	}
	return m, nil
}

func (d *Decoder) decodeFrom(data []byte, depth int) (proto.Message, []byte, error) {
	if depth > maxNestingDepth {
		return nil, nil, fmt.Errorf("%w: nesting too deep", ErrMalformed)
	}
	if len(data) == 0 {
		return nil, nil, fmt.Errorf("%w: empty", ErrMalformed)
	}
	tag, data := data[0], data[1:]
	switch tag {
	case tagEnvelope:
		if len(data) == 0 {
			return nil, nil, ErrMalformed
		}
		child := data[0]
		inner, rest, err := d.decodeFrom(data[1:], depth+1)
		if err != nil {
			return nil, nil, err
		}
		if d == nil {
			return proto.Envelope{Child: child, Inner: inner}, rest, nil
		}
		return d.envs.box(proto.Envelope{Child: child, Inner: inner}), rest, nil
	case tagShare:
		n, data, err := getUvarint(data)
		// Every declared row costs at least one byte of input, so a count
		// beyond the remaining data is malformed — checked BEFORE the
		// allocation, so a truncated or corrupted datagram cannot demand
		// megabytes of row headers with a three-byte varint.
		if err != nil || n > maxSliceElements || n > uint64(len(data)) {
			return nil, nil, ErrMalformed
		}
		var rows []field.Poly
		if d == nil {
			rows = make([]field.Poly, n)
		} else {
			rows = d.polys.take(int(n))
		}
		for i := range rows {
			rows[i], data, err = d.getElems(data)
			if err != nil {
				return nil, nil, err
			}
		}
		if d == nil {
			return gvss.ShareMsg{Rows: rows}, data, nil
		}
		return d.shares.box(gvss.ShareMsg{Rows: rows}), data, nil
	case tagEcho:
		vals, data, err := d.getElemMatrix(data)
		if err != nil {
			return nil, nil, err
		}
		has, data, err := d.getBoolMatrix(data)
		if err != nil {
			return nil, nil, err
		}
		if d == nil {
			return gvss.EchoMsg{Vals: vals, Has: has}, data, nil
		}
		return d.echoes.box(gvss.EchoMsg{Vals: vals, Has: has}), data, nil
	case tagVote:
		ok, data, err := d.getBoolMatrix(data)
		if err != nil {
			return nil, nil, err
		}
		if d == nil {
			return gvss.VoteMsg{OK: ok}, data, nil
		}
		return d.votes.box(gvss.VoteMsg{OK: ok}), data, nil
	case tagRecover:
		shares, data, err := d.getElemMatrix(data)
		if err != nil {
			return nil, nil, err
		}
		has, data, err := d.getBoolMatrix(data)
		if err != nil {
			return nil, nil, err
		}
		if d == nil {
			return gvss.RecoverMsg{Shares: shares, HasRow: has}, data, nil
		}
		return d.recovers.box(gvss.RecoverMsg{Shares: shares, HasRow: has}), data, nil
	case tagAccept:
		n, data, err := getUvarint(data)
		if err != nil || n > maxSliceElements || n > uint64(len(data)) {
			return nil, nil, ErrMalformed
		}
		var set []uint16
		if d == nil {
			set = make([]uint16, n)
		} else {
			set = d.sets.take(int(n))
		}
		for i := range set {
			var v uint64
			v, data, err = getUvarint(data)
			if err != nil || v > 1<<16-1 {
				return nil, nil, ErrMalformed
			}
			set[i] = uint16(v)
		}
		if d == nil {
			return coin.AcceptMsg{Set: set}, data, nil
		}
		return d.accepts.box(coin.AcceptMsg{Set: set}), data, nil
	case tagTwoClock:
		if len(data) < 1 {
			return nil, nil, ErrMalformed
		}
		return core.TwoClockMsg{V: data[0]}, data[1:], nil
	case tagFullClock:
		v, data, err := getUvarint(data)
		if err != nil {
			return nil, nil, err
		}
		return core.FullClockMsg{V: v}, data, nil
	case tagPropose:
		if len(data) < 1 {
			return nil, nil, ErrMalformed
		}
		bot := data[0] != 0
		v, data, err := getUvarint(data[1:])
		if err != nil {
			return nil, nil, err
		}
		return core.ProposeMsg{V: v, Bot: bot}, data, nil
	case tagBit:
		if len(data) < 1 {
			return nil, nil, ErrMalformed
		}
		return core.BitMsg{B: data[0]}, data[1:], nil
	case tagBaseClock:
		v, data, err := getUvarint(data)
		if err != nil {
			return nil, nil, err
		}
		return baseline.ClockMsg{V: v}, data, nil
	case tagBasePropose:
		if len(data) < 1 {
			return nil, nil, ErrMalformed
		}
		bot := data[0] != 0
		v, data, err := getUvarint(data[1:])
		if err != nil {
			return nil, nil, err
		}
		return baseline.PhaseProposeMsg{V: v, Bot: bot}, data, nil
	case tagBaseBit:
		if len(data) < 1 {
			return nil, nil, ErrMalformed
		}
		return baseline.PhaseBitMsg{B: data[0]}, data[1:], nil
	case tagBaseKing:
		v, data, err := getUvarint(data)
		if err != nil {
			return nil, nil, err
		}
		return baseline.KingMsg{V: v}, data, nil
	default:
		return nil, nil, fmt.Errorf("%w: unknown tag %d", ErrMalformed, tag)
	}
}

func encodeShare(b *[]byte, v gvss.ShareMsg) {
	*b = append(*b, tagShare)
	putUvarint(b, uint64(len(v.Rows)))
	for _, row := range v.Rows {
		putElems(b, row)
	}
}

func encodeEcho(b *[]byte, v gvss.EchoMsg) {
	*b = append(*b, tagEcho)
	putElemMatrix(b, v.Vals)
	putBoolMatrix(b, v.Has)
}

func encodeVote(b *[]byte, v gvss.VoteMsg) {
	*b = append(*b, tagVote)
	putBoolMatrix(b, v.OK)
}

func encodeRecover(b *[]byte, v gvss.RecoverMsg) {
	*b = append(*b, tagRecover)
	putElemMatrix(b, v.Shares)
	putBoolMatrix(b, v.HasRow)
}

func encodeAccept(b *[]byte, v coin.AcceptMsg) {
	*b = append(*b, tagAccept)
	putUvarint(b, uint64(len(v.Set)))
	for _, d := range v.Set {
		putUvarint(b, uint64(d))
	}
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func putUvarint(b *[]byte, v uint64) {
	*b = binary.AppendUvarint(*b, v)
}

func getUvarint(data []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, ErrMalformed
	}
	return v, data[n:], nil
}

func putElems(b *[]byte, es []field.Elem) {
	putUvarint(b, uint64(len(es)))
	for _, e := range es {
		putUvarint(b, uint64(e))
	}
}

func (d *Decoder) getElems(data []byte) (field.Poly, []byte, error) {
	n, data, err := getUvarint(data)
	// Elements are at least one byte each on the wire; bounding the count
	// by the remaining input keeps the allocation proportional to the
	// datagram, not to what a corrupted header claims.
	if err != nil || n > maxSliceElements || n > uint64(len(data)) {
		return nil, nil, ErrMalformed
	}
	var es field.Poly
	if d == nil {
		es = make(field.Poly, n)
	} else {
		es = d.elems.take(int(n))
	}
	for i := range es {
		var v uint64
		v, data, err = getUvarint(data)
		if err != nil {
			return nil, nil, err
		}
		es[i] = field.Reduce(v) // canonicalize: the wire may carry garbage
	}
	return es, data, nil
}

func putElemMatrix(b *[]byte, m [][]field.Elem) {
	putUvarint(b, uint64(len(m)))
	for _, row := range m {
		putElems(b, row)
	}
}

func (d *Decoder) getElemMatrix(data []byte) ([][]field.Elem, []byte, error) {
	n, data, err := getUvarint(data)
	if err != nil || n > maxSliceElements || n > uint64(len(data)) {
		return nil, nil, ErrMalformed
	}
	var m [][]field.Elem
	if d == nil {
		m = make([][]field.Elem, n)
	} else {
		m = d.elemRows.take(int(n))
	}
	for i := range m {
		var row field.Poly
		row, data, err = d.getElems(data)
		if err != nil {
			return nil, nil, err
		}
		m[i] = row
	}
	return m, data, nil
}

// putBoolMatrix writes row count, then per row the bit count and the
// bit-packed bits.
func putBoolMatrix(b *[]byte, m [][]bool) {
	putUvarint(b, uint64(len(m)))
	for _, row := range m {
		putUvarint(b, uint64(len(row)))
		var cur byte
		for i, v := range row {
			if v {
				cur |= 1 << (i % 8)
			}
			if i%8 == 7 {
				*b = append(*b, cur)
				cur = 0
			}
		}
		if len(row)%8 != 0 {
			*b = append(*b, cur)
		}
	}
}

func (d *Decoder) getBoolMatrix(data []byte) ([][]bool, []byte, error) {
	n, data, err := getUvarint(data)
	if err != nil || n > maxSliceElements || n > uint64(len(data)) {
		return nil, nil, ErrMalformed
	}
	var m [][]bool
	if d == nil {
		m = make([][]bool, n)
	} else {
		m = d.boolRows.take(int(n))
	}
	for i := range m {
		var cnt uint64
		cnt, data, err = getUvarint(data)
		if err != nil || cnt > maxSliceElements {
			return nil, nil, ErrMalformed
		}
		nbytes := int((cnt + 7) / 8)
		if len(data) < nbytes {
			return nil, nil, ErrMalformed
		}
		var row []bool
		if d == nil {
			row = make([]bool, cnt)
		} else {
			row = d.bools.take(int(cnt))
		}
		for j := range row {
			row[j] = data[j/8]&(1<<(j%8)) != 0
		}
		data = data[nbytes:]
		m[i] = row
	}
	return m, data, nil
}
