package proto

import "errors"

// The deep-copy facility of the message-lifetime contract: messages are
// valid only for the beat they were sent in (see Message), so anything
// that keeps one longer — a recording adversary, a tracer — captures it
// with Clone. The implementation is a wire encode/decode roundtrip
// (package wire registers it at init), which covers every registered
// message type with zero per-type copying code and guarantees the copy
// shares no memory with the original: its decode always builds fresh
// values, never into a receive path's beat arena (wire.Decoder).
//
// proto cannot import wire (wire imports the message-owning packages,
// which import proto), so the cloner is injected.

// ErrNoCloner is returned by Clone when no cloner has been registered —
// i.e. the program never imported package wire.
var ErrNoCloner = errors.New("proto: no message cloner registered (import ssbyzclock/internal/wire)")

var cloner func(Message) (Message, error)

// RegisterCloner installs the deep-copy implementation. Called from
// package wire's init; later registrations overwrite earlier ones.
func RegisterCloner(fn func(Message) (Message, error)) { cloner = fn }

// Clone returns a deep copy of m that shares no memory with the
// original, or an error for unregistered message types (only test
// doubles and foreign types are unregistered; every type a protocol in
// this repository sends over the wire is covered). Callers that may
// legitimately see unregistered types — they are never pooled, so
// retaining the original is safe for them — can fall back to m itself on
// error.
func Clone(m Message) (Message, error) {
	if cloner == nil {
		return nil, ErrNoCloner
	}
	return cloner(m)
}
