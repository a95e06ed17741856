package wire

import (
	"sync"

	"ssbyzclock/internal/proto"
)

// Clone deep-copies a registered message by a wire encode/decode
// roundtrip: Decode (the nil Decoder, never an arena) builds fresh Go
// values, so the result shares no memory with the original or with any
// Decoder's arena — the durable-capture primitive of the
// message-lifetime contract (messages are valid only for the beat;
// recording adversaries clone what they keep). It errors exactly where
// Encode does: on unregistered concrete types.
//
// The encoding buffer is recycled through a pool, so a clone costs one
// encode pass plus the decoded value's own allocations.
func Clone(m proto.Message) (proto.Message, error) {
	bufp := cloneBufPool.Get().(*[]byte)
	buf, err := AppendTo((*bufp)[:0], m)
	*bufp = buf[:0]
	if err != nil {
		cloneBufPool.Put(bufp)
		return nil, err
	}
	out, err := Decode(buf)
	cloneBufPool.Put(bufp)
	if err != nil {
		return nil, err
	}
	return out, nil
}

var cloneBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// init installs Clone as the proto.Clone implementation, closing the
// proto -> wire dependency inversion: proto defines the facility, wire
// implements it over the codec.
func init() { proto.RegisterCloner(Clone) }
