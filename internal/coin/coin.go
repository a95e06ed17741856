// Package coin implements probabilistic coin-flipping algorithms in the
// sense of the paper's Definition 2.6: synchronous protocols that, within
// a fixed number of rounds, output a bit at every node such that with
// constant probability p0 (resp. p1) all non-faulty nodes output 0
// (resp. 1), and the output is unpredictable to the adversary before the
// final round.
//
// Three implementations are provided:
//
//   - FM: a Feldman–Micali-style common coin built on graded verifiable
//     secret sharing (package gvss) with ticket-based leader election.
//     This is the instantiation the paper assumes (Observation 2.1).
//   - Rabin: a predistributed shared-randomness beacon in the style of
//     Rabin [17]. The paper's footnote 1 notes such a coin relies on
//     special common initialization, which self-stabilization disallows;
//     it is provided as an ideal coin for fast large-n experiments and for
//     differential testing against FM.
//   - Local: an independent per-node coin — deliberately *not* a common
//     coin. It is the randomness model of the Dolev–Welch baseline and of
//     the E9 ablation showing why a common coin is essential.
//
// The package also defines the coin-distribution architecture the clock
// stack is wired through: Feed (a consumer's view of a coin source),
// Supply (hands feeds to consumers), and SharedPipeline — Remark 4.1's
// layout, multiplexing ONE ss-Byz-Coin-Flip pipeline per node among all
// of a stack's consumers via salted per-consumer derivation. See
// shared.go for the design notes and the consumer-handle contract.
package coin

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"ssbyzclock/internal/proto"
)

// Factories is the one table of coin names: every command, sweep grid
// and the public API resolve a name here. Only the Rabin beacon reads
// the seed (its predistributed tape).
var Factories = map[string]func(seed int64) Factory{
	"fm":    func(int64) Factory { return FMFactory{} },
	"rabin": func(seed int64) Factory { return RabinFactory{Seed: seed} },
	"local": func(int64) Factory { return LocalFactory{} },
}

// Lookup returns the named coin's factory for seed.
func Lookup(name string, seed int64) (Factory, error) {
	mk, ok := Factories[name]
	if !ok {
		names := make([]string, 0, len(Factories))
		for k := range Factories {
			names = append(names, k)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown coin %q (known: %s)", name, strings.Join(names, " "))
	}
	return mk(seed), nil
}

// Flipper is one instance of a multi-round coin-flipping protocol
// (Definition 2.6's algorithm A). Rounds are numbered 1..Rounds(); the
// driver calls Compose(r) then Deliver(r) for each round in order, one
// round per beat when pipelined. Output is meaningful after
// Deliver(Rounds()) and must return a deterministic default (0) before.
type Flipper interface {
	Rounds() int
	Compose(round int) []proto.Send
	Deliver(round int, inbox []proto.Recv)
	Output() byte
}

// Factory creates per-node Flipper instances. beat is the global beat at
// which the instance is created; only the Rabin beacon uses it (to index
// its predistributed tape), and that dependence is exactly the
// special-initialization assumption footnote 1 of the paper excludes for
// the main result.
type Factory interface {
	Rounds() int
	New(env proto.Env, beat uint64) Flipper
}

// WordFlipper is optionally implemented by flippers whose output carries
// more than one bit of common randomness — the FM coin's leader ticket,
// the Rabin beacon's tape word. OutputWord must agree across honest
// nodes whenever the protocol's underlying result fully agrees (the FM
// coin's elected leader and ticket; constant probability per
// Definition 2.6), must be unpredictable to the adversary on the same
// schedule as Output, and (like Output) must return a deterministic
// default before the final round. On beats where only Output agrees —
// e.g. two leaders' tickets coincidentally sharing parity — the words
// (hence derived consumer bits) may disagree; that costs a constant
// slice of the coin's agreement probability, never its p0/p1 floor.
// The shared pipeline (SharedPipeline) uses the word to derive
// independent per-consumer bits; flippers without it fall back to
// single-bit derivation.
type WordFlipper interface {
	OutputWord() uint64
}

// Recycler is optionally implemented by factories whose instances can be
// re-initialized in place. Renew behaves exactly like New — including the
// deterministic randomness it draws — but may reuse the retired
// instance's allocations; drivers (the ss-Byz-Coin-Flip pipeline) pass
// the instance that just exited the pipeline. Implementations must fall
// back to New when old is foreign (e.g. a fault-scrambled wrapper) or
// shaped for a different environment.
type Recycler interface {
	Renew(old Flipper, env proto.Env, beat uint64) Flipper
}

// splitmix64 is the SplitMix64 mixer, used to derive beacon bits and
// scramble seeds deterministically.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rngFrom derives a fresh deterministic rand.Rand from a seed and salt.
func rngFrom(seed int64, salt uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(splitmix64(uint64(seed) ^ salt))))
}
