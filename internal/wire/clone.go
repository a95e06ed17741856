package wire

import "ssbyzclock/internal/proto"

// Clone deep-copies a registered message by a wire encode/decode
// roundtrip: Decode (the zero Decoder, never a pool) builds fresh Go
// values, so the result shares no memory with the original or with any
// pool's leases — the durable-capture primitive of the message-lifetime
// contract (messages are valid only for the beat; recording adversaries
// clone what they keep). It errors exactly where Encode does: on
// unregistered concrete types.
func Clone(m proto.Message) (proto.Message, error) {
	buf, err := Encode(m)
	if err != nil {
		return nil, err
	}
	return Decode(buf)
}

// init installs Clone as the proto.Clone implementation, closing the
// proto -> wire dependency inversion: proto defines the facility, wire
// implements it over the codec.
func init() { proto.RegisterCloner(Clone) }
