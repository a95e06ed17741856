package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/proto"
)

// randomInbox builds an arbitrary (Byzantine-shaped) inbox: random
// senders, random message types, random envelope nesting, random values.
func randomInbox(rng *rand.Rand, n int) []proto.Recv {
	var inbox []proto.Recv
	count := rng.Intn(3 * n)
	for i := 0; i < count; i++ {
		var leaf proto.Message
		switch rng.Intn(4) {
		case 0:
			leaf = core.TwoClockMsg{V: uint8(rng.Intn(256))}
		case 1:
			leaf = core.FullClockMsg{V: rng.Uint64()}
		case 2:
			leaf = &core.ProposeMsg{V: rng.Uint64(), Bot: rng.Intn(2) == 0}
		default:
			leaf = core.BitMsg{B: uint8(rng.Intn(256))}
		}
		msg := leaf
		for d := rng.Intn(4); d > 0; d-- {
			msg = proto.Envelope{Child: uint8(rng.Intn(6)), Inner: msg}
		}
		inbox = append(inbox, proto.Recv{From: rng.Intn(n+2) - 1, Msg: msg})
	}
	return inbox
}

// TestProtocolsSurviveArbitraryInboxes is the fuzz-shaped safety net: no
// sequence of garbage inboxes and scrambles may panic any protocol or
// drive its clock out of range.
func TestProtocolsSurviveArbitraryInboxes(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			builders := map[string]func(env proto.Env) interface {
				proto.Protocol
				proto.ClockReader
				proto.Scrambler
			}{
				"twoclock": func(env proto.Env) interface {
					proto.Protocol
					proto.ClockReader
					proto.Scrambler
				} {
					return core.NewTwoClockLayout(env, coin.FMFactory{}, core.VariantCorrect, l)
				},
				"fourclock": func(env proto.Env) interface {
					proto.Protocol
					proto.ClockReader
					proto.Scrambler
				} {
					return core.NewFourClockLayout(env, coin.RabinFactory{Seed: 1}, l)
				},
				"clocksync": func(env proto.Env) interface {
					proto.Protocol
					proto.ClockReader
					proto.Scrambler
				} {
					return core.NewClockSyncLayout(env, 16, coin.FMFactory{}, false, l)
				},
			}
			for name, build := range builders {
				t.Run(name, func(t *testing.T) {
					f := func(seed int64) bool {
						rng := rand.New(rand.NewSource(seed))
						env := proto.Env{N: 4, F: 1, ID: rng.Intn(4), Rng: rng}
						p := build(env)
						for beat := uint64(0); beat < 12; beat++ {
							if rng.Intn(5) == 0 {
								p.Scramble(rng)
							}
							p.Compose(beat)
							p.Deliver(beat, randomInbox(rng, env.N))
							if v, ok := p.Clock(); ok && v >= p.Modulus() {
								t.Errorf("clock %d out of range [0,%d)", v, p.Modulus())
								return false
							}
						}
						return true
					}
					if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
						t.Fatal(err)
					}
				})
			}
		})
	}
}

// TestTwoClockSelfMessageCounted: a node's broadcast includes itself, so
// with n=1, f=0 the node forms its own quorum and ticks alone.
func TestTwoClockSingleNode(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			env := proto.Env{N: 1, F: 0, ID: 0, Rng: rand.New(rand.NewSource(1))}
			p := core.NewTwoClockLayout(env, coin.RabinFactory{Seed: 1}, core.VariantCorrect, l)
			var last uint64
			haveLast := false
			for beat := uint64(0); beat < 20; beat++ {
				sends := p.Compose(beat)
				var inbox []proto.Recv
				for _, s := range sends {
					inbox = append(inbox, proto.Recv{From: 0, Msg: s.Msg})
				}
				p.Deliver(beat, inbox)
				if v, ok := p.Clock(); ok {
					if haveLast && v != (last+1)%2 {
						t.Fatalf("single node clock not alternating: %d -> %d", last, v)
					}
					last, haveLast = v, true
				}
			}
			if !haveLast {
				t.Fatal("single-node clock never defined")
			}
		})
	}
}

// TestClockSyncModulusOne: k=1 is degenerate but legal; the clock is
// constant zero.
func TestClockSyncModulusOne(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			env := proto.Env{N: 4, F: 1, ID: 0, Rng: rand.New(rand.NewSource(2))}
			p := core.NewClockSyncLayout(env, 1, coin.RabinFactory{Seed: 1}, false, l)
			for beat := uint64(0); beat < 10; beat++ {
				p.Compose(beat)
				p.Deliver(beat, nil)
				if v, _ := p.Clock(); v != 0 {
					t.Fatalf("k=1 clock = %d", v)
				}
			}
		})
	}
}

// TestDuplicateSenderMessagesCountedOnce: a Byzantine node sending five
// clock votes in one beat contributes at most one to the tally.
func TestDuplicateSenderMessagesCountedOnce(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			env := proto.Env{N: 4, F: 1, ID: 0, Rng: rand.New(rand.NewSource(3))}
			p := core.NewTwoClockLayout(env, coin.RabinFactory{Seed: 2}, core.VariantCorrect, l)
			// One honest vote for 0 plus five duplicate votes for 0 from a single
			// Byzantine sender: two distinct voters < quorum (3), so the clock
			// must stay ⊥. If duplicates each counted, one Byzantine sender could
			// fabricate a quorum alone.
			inbox := []proto.Recv{
				{From: 1, Msg: proto.Envelope{Child: 0, Inner: core.TwoClockMsg{V: 0}}},
			}
			for i := 0; i < 5; i++ {
				inbox = append(inbox, proto.Recv{From: 3, Msg: proto.Envelope{Child: 0, Inner: core.TwoClockMsg{V: 0}}})
			}
			p.Compose(0)
			p.Deliver(0, inbox)
			if _, ok := p.Clock(); ok {
				t.Fatal("duplicates from one sender fabricated a quorum")
			}
		})
	}
}
