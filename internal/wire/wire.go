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
// Matrices are square. The gvss messages hold each n×n matrix as one
// flat row-major slice of n² entries; it travels as the row count n and
// then n rows, each its length n and its entries. Encode rejects a
// matrix whose length is not a perfect square, and Decode rejects a
// ragged or non-square one as malformed, decoding the rows straight into
// one flat slice.
//
// Two allocation strategies share the one decoder. Decode (the zero
// Decoder) builds every message in fresh memory that nothing else
// references — what Clone needs. A Decoder with a pool serves receive
// paths: its messages are leases from the node's pool, valid only until
// that pool's next Recycle, which the owner calls once the beat's last
// reader is done. That is the message-lifetime contract of package
// proto made concrete; a message that must live longer is
// proto.Clone'd.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"ssbyzclock/internal/baseline"
	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/field"
	"ssbyzclock/internal/gvss"
	"ssbyzclock/internal/pool"
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
	// The five bulk payload types and core.ProposeMsg exist in pointer
	// form only (their Kind methods have pointer receivers).
	case *gvss.ShareMsg:
		*b = append(*b, tagShare)
		putUvarint(b, uint64(len(v.Rows)))
		for _, row := range v.Rows {
			putElems(b, row)
		}
	case *gvss.EchoMsg:
		*b = append(*b, tagEcho)
		if err := putElemMatrix(b, v.Vals); err != nil {
			return err
		}
		return putBoolMatrix(b, v.Has)
	case *gvss.VoteMsg:
		*b = append(*b, tagVote)
		return putBoolMatrix(b, v.OK)
	case *gvss.RecoverMsg:
		*b = append(*b, tagRecover)
		if err := putElemMatrix(b, v.Shares); err != nil {
			return err
		}
		return putBoolMatrix(b, v.HasRow)
	case *coin.AcceptMsg:
		*b = append(*b, tagAccept)
		putUvarint(b, uint64(len(v.Set)))
		for _, d := range v.Set {
			putUvarint(b, uint64(d))
		}
	case core.TwoClockMsg:
		*b = append(*b, tagTwoClock, v.V)
	case core.FullClockMsg:
		*b = append(*b, tagFullClock)
		putUvarint(b, v.V)
	case *core.ProposeMsg:
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
// memory: it is the zero Decoder's Decode.
func Decode(data []byte) (proto.Message, error) {
	return Decoder{}.Decode(data)
}

// Decode parses a message, consuming the whole buffer. The zero Decoder
// builds every message in fresh memory; one with a pool leases it (see
// Decoder). Both accept and reject exactly the same inputs, and their
// results encode to the same bytes.
func (d Decoder) Decode(data []byte) (proto.Message, error) {
	m, rest, err := d.decodeFrom(data, 0)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(rest))
	}
	return m, nil
}

func (d Decoder) decodeFrom(data []byte, depth int) (proto.Message, []byte, error) {
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
		if d.Pool == nil {
			return proto.Envelope{Child: child, Inner: inner}, rest, nil
		}
		return proto.NewEnvelope(d.Pool, child, inner), rest, nil
	case tagShare:
		n, data, err := getUvarint(data)
		// Every declared row costs at least one byte of input, so a count
		// beyond the remaining data is malformed — checked BEFORE the
		// allocation, so a truncated or corrupted datagram cannot demand
		// megabytes of row headers with a three-byte varint.
		if err != nil || n > maxSliceElements || n > uint64(len(data)) {
			return nil, nil, ErrMalformed
		}
		rows := d.Pool.Polys(int(n))
		for i := range rows {
			rows[i], data, err = d.getElems(data)
			if err != nil {
				return nil, nil, err
			}
		}
		return box(d.Pool, gvss.ShareKind, gvss.ShareMsg{Rows: rows}), data, nil
	case tagEcho:
		vals, data, err := d.getElemMatrix(data)
		if err != nil {
			return nil, nil, err
		}
		has, data, err := d.getBoolMatrix(data)
		if err != nil {
			return nil, nil, err
		}
		return box(d.Pool, gvss.EchoKind, gvss.EchoMsg{Vals: vals, Has: has}), data, nil
	case tagVote:
		ok, data, err := d.getBoolMatrix(data)
		if err != nil {
			return nil, nil, err
		}
		return box(d.Pool, gvss.VoteKind, gvss.VoteMsg{OK: ok}), data, nil
	case tagRecover:
		shares, data, err := d.getElemMatrix(data)
		if err != nil {
			return nil, nil, err
		}
		has, data, err := d.getBoolMatrix(data)
		if err != nil {
			return nil, nil, err
		}
		return box(d.Pool, gvss.RecoverKind, gvss.RecoverMsg{Shares: shares, HasRow: has}), data, nil
	case tagAccept:
		n, data, err := getUvarint(data)
		if err != nil || n > maxSliceElements || n > uint64(len(data)) {
			return nil, nil, ErrMalformed
		}
		set := pool.Lease(d.Pool, coin.AcceptSetKind, int(n))
		for i := range set {
			var v uint64
			v, data, err = getUvarint(data)
			if err != nil || v > 1<<16-1 {
				return nil, nil, ErrMalformed
			}
			set[i] = uint16(v)
		}
		return box(d.Pool, coin.AcceptKind, coin.AcceptMsg{Set: set}), data, nil
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
		return box(d.Pool, core.ProposeKind, core.ProposeMsg{V: v, Bot: bot}), data, nil
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

func (d Decoder) getElems(data []byte) (field.Poly, []byte, error) {
	n, data, err := getUvarint(data)
	// Elements are at least one byte each on the wire; bounding the count
	// by the remaining input keeps the allocation proportional to the
	// datagram, not to what a corrupted header claims.
	if err != nil || n > maxSliceElements || n > uint64(len(data)) {
		return nil, nil, ErrMalformed
	}
	es := d.Pool.Elems(int(n))
	data, err = readElems(es, data)
	return es, data, err
}

// readElems fills dst with len(dst) element varints.
func readElems(dst []field.Elem, data []byte) ([]byte, error) {
	for i := range dst {
		v, rest, err := getUvarint(data)
		if err != nil {
			return nil, err
		}
		dst[i] = field.Reduce(v) // canonicalize: the wire may carry garbage
		data = rest
	}
	return data, nil
}

// side returns the row count r of a square matrix of l = r² entries.
func side(l int) (int, error) {
	r := int(math.Sqrt(float64(l)))
	for r*r > l {
		r--
	}
	for (r+1)*(r+1) <= l {
		r++
	}
	if r*r != l {
		return 0, fmt.Errorf("wire: a matrix of %d entries is not square", l)
	}
	return r, nil
}

// matrixSide reads a square matrix's row count r, requiring the rows to
// fit the remaining input — each row costs at least its length varint
// plus r entries of at least bits bits each — and r² to fit
// maxSliceElements, both checked BEFORE the r² allocation, so a
// corrupted header cannot demand megabytes with a three-byte varint.
func matrixSide(data []byte, bits uint64) (int, []byte, error) {
	r, data, err := getUvarint(data)
	if err != nil || r > uint64(len(data)) || r*r > maxSliceElements || r*(1+(r*bits+7)/8) > uint64(len(data)) {
		return 0, nil, ErrMalformed
	}
	return int(r), data, nil
}

// getRowLen reads a matrix row's length varint, which must equal r.
func getRowLen(data []byte, r int) ([]byte, error) {
	n, data, err := getUvarint(data)
	if err != nil || n != uint64(r) {
		return nil, ErrMalformed
	}
	return data, nil
}

// putElemMatrix writes the flat square matrix m as its row count and
// then its rows, each as putElems.
func putElemMatrix(b *[]byte, m []field.Elem) error {
	r, err := side(len(m))
	if err != nil {
		return err
	}
	putUvarint(b, uint64(r))
	for i := 0; i < len(m); i += r {
		putElems(b, m[i:i+r])
	}
	return nil
}

// getElemMatrix reads a square element matrix into one flat row-major
// slice.
func (d Decoder) getElemMatrix(data []byte) ([]field.Elem, []byte, error) {
	r, data, err := matrixSide(data, 8)
	if err != nil {
		return nil, nil, err
	}
	m := d.Pool.Elems(r * r)
	for i := 0; i < len(m); i += r {
		if data, err = getRowLen(data, r); err != nil {
			return nil, nil, err
		}
		if data, err = readElems(m[i:i+r], data); err != nil {
			return nil, nil, err
		}
	}
	return m, data, nil
}

// putBoolMatrix writes the flat square matrix m as its row count and
// then per row the bit count and the bit-packed bits.
func putBoolMatrix(b *[]byte, m []bool) error {
	r, err := side(len(m))
	if err != nil {
		return err
	}
	putUvarint(b, uint64(r))
	for i := 0; i < len(m); i += r {
		putUvarint(b, uint64(r))
		var cur byte
		for j, v := range m[i : i+r] {
			if v {
				cur |= 1 << (j % 8)
			}
			if j%8 == 7 {
				*b = append(*b, cur)
				cur = 0
			}
		}
		if r%8 != 0 {
			*b = append(*b, cur)
		}
	}
	return nil
}

// getBoolMatrix reads a square bool matrix into one flat row-major
// slice.
func (d Decoder) getBoolMatrix(data []byte) ([]bool, []byte, error) {
	r, data, err := matrixSide(data, 1)
	if err != nil {
		return nil, nil, err
	}
	m := d.Pool.Bools(r * r)
	nbytes := (r + 7) / 8
	for i := 0; i < len(m); i += r {
		if data, err = getRowLen(data, r); err != nil {
			return nil, nil, err
		}
		if len(data) < nbytes {
			return nil, nil, ErrMalformed
		}
		for j, row := 0, m[i:i+r]; j < r; j++ {
			row[j] = data[j/8]&(1<<(j%8)) != 0
		}
		data = data[nbytes:]
	}
	return m, data, nil
}
