package wire

import "ssbyzclock/internal/pool"

// Decoder is the receive side of the message-lifetime contract (package
// proto — a delivered message is valid for its beat only, and whoever
// keeps one clones it). Decode builds every part of a decoded message —
// flat matrices, share rows, row headers, accept sets, envelopes, bulk
// message structs and proposals — from typed leases of Pool, each an
// O(1) carve; the remaining scalar messages fit the runtime's
// allocation-free small-value boxes.
//
// Lifetime rule: a message from Decode is valid until Pool's next
// Recycle, which the owner calls once per beat, after the last reader of
// the beat's messages (Deliver and the adversary's Act alike) and before
// the next beat's Compose. Anything that must outlive the beat goes
// through proto.Clone, which decodes with the zero Decoder.
//
// The zero Decoder (nil Pool) is the package-level Decode: fresh heap
// memory, and envelopes in value form. A Decoder is as safe for
// concurrent use as its Pool, which is to say not.
type Decoder struct {
	Pool *pool.Node
}

// box leases one entry of kind k holding v and returns its address.
func box[T any](p *pool.Node, k pool.Kind[T], v T) *T {
	b := &pool.Lease(p, k, 1)[0]
	*b = v
	return b
}
