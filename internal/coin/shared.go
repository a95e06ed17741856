package coin

import (
	"fmt"
	"math/rand"

	"ssbyzclock/internal/proto"
)

// This file implements the shared coin-pipeline architecture of the
// paper's Remark 4.1. The clock stack (ss-Byz-Clock-Sync over
// ss-Byz-4-Clock over two ss-Byz-2-Clocks, or the recursive 2^j-clock)
// nominally runs one ss-Byz-Coin-Flip pipeline per embedded protocol —
// three per node for the full stack — but the remark observes that a
// single pipeline per node suffices: every consumer needs one common
// unpredictable bit per beat, and one pipeline produces exactly that.
// Sharing it cuts the dominant GVSS cost and the coin's message
// complexity by the number of consumers.
//
// The moving parts:
//
//   - Feed is a consumer's view of a coin source. A per-instance
//     pipeline (the paper's layout) is a Feed that sends and receives
//     its own traffic; a SharedPipeline consumer is a Feed that sends
//     nothing and reads a bit derived from the shared per-beat output.
//   - Supply hands Feeds to consumers; clock protocols are wired from a
//     Supply and never know which layout they run under.
//   - SharedPipeline drives ONE underlying pipeline (a Driver, in
//     practice *sscoin.Pipeline) and implements Supply by handing out
//     derived consumer handles.
//
// Consumer-handle contract:
//
//   - Exactly one protocol — the root of the stack — owns the
//     SharedPipeline: it forwards the pipeline's traffic under the
//     proto.SharedCoinChild envelope tag and calls Compose/Deliver once
//     per beat, Deliver *before* delivering any consumer, so consumers
//     read the bit produced in the current beat (the freshness that
//     Lemma 8 and Remark 3.1 require).
//   - Each consumer subscribes with a label that is unique within the
//     stack and stable across runs. The label (not subscription order)
//     determines the consumer's derivation salt, so coin values are
//     reproducible regardless of construction order or scheduler
//     worker count. Subscribe panics on duplicate or colliding labels:
//     two consumers sharing a salt would share a bit stream, silently
//     correlating sub-protocols that the analysis treats as independent.
//   - Consumers hold no coin state of their own. Scrambling the root
//     (which scrambles the Driver) is the transient-fault model for the
//     whole stack's randomness; consumer Scramble is a no-op.
//
// Per-consumer derivation: the pipeline's per-beat output is widened to
// a word (see Driver.Word). When the word carries more than one bit of
// common randomness ("rich": the FM coin's leader ticket, the Rabin
// beacon's tape word), consumer bits are splitmix64(word XOR salt)&1 —
// distinct consumers get effectively independent bits. When the
// underlying flipper only yields a bit, the consumer bit is that bit
// XORed with a salt-derived constant: a plain hash of a two-valued word
// could collapse to a constant stream for unlucky salts, which would
// destroy the coin's E0/E1 property for that consumer, whereas the XOR
// form provably preserves p0 and p1.

// Feed is one consumer's view of a coin source: the subset of the
// ss-Byz-Coin-Flip pipeline surface the clock protocols consume.
// *sscoin.Pipeline implements it (the per-instance layout); so do the
// handles returned by SharedPipeline.Feed (the shared layout, whose
// Compose returns nothing and whose Deliver and Scramble are no-ops).
type Feed interface {
	// Compose returns the feed's own traffic for this beat (empty for a
	// shared-pipeline consumer: the root forwards the shared traffic).
	Compose(beat uint64) []proto.Send
	// Deliver routes this beat's feed traffic (no-op for a consumer).
	Deliver(beat uint64, inbox []proto.Recv)
	// Bit is the feed's random bit for the most recently delivered beat.
	Bit() byte
	// Rounds is Δ_A: the pipeline depth, hence the convergence bound the
	// consumer must respect.
	Rounds() int
	// Scramble models a transient fault in the feed's own state (no-op
	// for a consumer; the root scrambles the shared pipeline).
	Scramble(rng *rand.Rand)
}

// Supply wires clock protocols to their coin feeds. Implementations:
// sscoin.PerInstance (the paper's layout: a fresh pipeline per
// consumer) and *SharedPipeline (Remark 4.1: derived handles onto one
// pipeline).
type Supply interface {
	// Feed returns the consumer's feed. label must be unique within the
	// supply and stable across runs; per-instance supplies may ignore it.
	Feed(env proto.Env, label string) Feed
}

// Driver is the underlying pipeline a SharedPipeline multiplexes — in
// practice *sscoin.Pipeline. It is a Feed that additionally exposes its
// per-beat output widened to a word.
type Driver interface {
	Feed
	// Word returns the most recent beat's output as a word, and whether
	// the word carries more than the single output bit (see the
	// derivation notes above). When rich, the word must agree across
	// honest nodes with constant probability — whenever the underlying
	// coin's result fully agrees (see coin.WordFlipper); on beats where
	// only the bit coincidentally agrees, words may differ, trading a
	// constant slice of agreement probability, never the p0/p1 floor.
	Word() (word uint64, rich bool)
}

// SharedPipeline multiplexes one coin pipeline among the consumers of a
// clock stack (Remark 4.1). It is created by the stack's root protocol,
// which drives Compose/Deliver/Scramble; consumers obtain derived Feeds
// via Subscribe (or the Supply interface). Not safe for concurrent use,
// matching proto.Protocol's per-node contract.
type SharedPipeline struct {
	drv  Driver
	bit  byte
	word uint64
	rich bool
	// subs maps derivation salt -> label, to reject duplicate labels and
	// (hypothetical) salt collisions at construction time.
	subs map[uint64]string
}

// NewSharedPipeline wraps the driver; the caller becomes the owner.
func NewSharedPipeline(drv Driver) *SharedPipeline {
	return &SharedPipeline{drv: drv, subs: make(map[uint64]string)}
}

// Compose forwards the shared pipeline's traffic. Owner only.
func (s *SharedPipeline) Compose(beat uint64) []proto.Send {
	return s.drv.Compose(beat)
}

// Deliver routes this beat's shared traffic and captures the beat's
// output word for consumers. Owner only, and before any consumer's
// Deliver within the beat.
func (s *SharedPipeline) Deliver(beat uint64, inbox []proto.Recv) {
	s.drv.Deliver(beat, inbox)
	s.bit = s.drv.Bit()
	s.word, s.rich = s.drv.Word()
}

// Rounds returns the pipeline depth Δ_A.
func (s *SharedPipeline) Rounds() int { return s.drv.Rounds() }

// Bit returns the most recent beat's raw (underived) pipeline output.
func (s *SharedPipeline) Bit() byte { return s.bit }

// Scramble models a transient fault: arbitrary driver state and an
// arbitrary captured output. Owner only.
func (s *SharedPipeline) Scramble(rng *rand.Rand) {
	s.drv.Scramble(rng)
	s.bit = byte(rng.Intn(2))
	s.word = rng.Uint64()
	s.rich = rng.Intn(2) == 0
}

// Feed implements Supply: it subscribes a consumer under the given
// label. It panics on duplicate labels or salt collisions — both are
// wiring bugs that would correlate nominally independent sub-protocols.
// The env parameter is unused (the pipeline was built by the owner) but
// kept so Supply implementations are interchangeable.
func (s *SharedPipeline) Feed(_ proto.Env, label string) Feed {
	return s.Subscribe(label)
}

// Subscribe registers a consumer and returns its derived feed. See Feed.
func (s *SharedPipeline) Subscribe(label string) Feed {
	salt := LabelSalt(label)
	if prev, ok := s.subs[salt]; ok {
		if prev == label {
			panic(fmt.Sprintf("coin: duplicate shared-pipeline consumer label %q", label))
		}
		panic(fmt.Sprintf("coin: shared-pipeline label salt collision: %q vs %q", prev, label))
	}
	s.subs[salt] = label
	return &consumer{sp: s, salt: salt}
}

// Consumers returns the number of subscribed consumers (observability).
func (s *SharedPipeline) Consumers() int { return len(s.subs) }

// LabelSalt maps a consumer label to its derivation salt: FNV-1a 64
// finished with a splitmix64 mix. Exposed so tests can assert the
// collision-freedom of a stack's label set.
func LabelSalt(label string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime64
	}
	return splitmix64(h)
}

// consumer is a subscriber's feed: stateless, deriving its bit from the
// shared pipeline's captured word and its own salt.
type consumer struct {
	sp   *SharedPipeline
	salt uint64
}

func (c *consumer) Compose(uint64) []proto.Send  { return nil }
func (c *consumer) Deliver(uint64, []proto.Recv) {}
func (c *consumer) Rounds() int                  { return c.sp.Rounds() }
func (c *consumer) Scramble(*rand.Rand)          {}

// Bit implements Feed: the consumer's derived bit for the most recently
// delivered beat (see the derivation notes in the file comment).
func (c *consumer) Bit() byte {
	return DeriveBit(c.sp.word, c.sp.rich, c.sp.bit, c.salt)
}

// DeriveBit is the per-consumer derivation rule, exposed for the fuzz
// harness: rich words hash with the salt; bare bits XOR a salt-derived
// constant (never a constant stream — see the file comment).
func DeriveBit(word uint64, rich bool, bit byte, salt uint64) byte {
	if rich {
		return byte(splitmix64(word^salt) & 1)
	}
	return (bit & 1) ^ byte(splitmix64(salt)&1)
}
