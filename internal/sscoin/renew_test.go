package sscoin

import (
	"math/rand"
	"testing"

	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/proto"
)

// TestRenewReusesScrambledSlots: a slot a scramble corrupted renews its
// wrapped instance in place when it retires, like any other slot. After
// Scramble and one pipeline depth of beats, every slot holds exactly the
// instance it held after the scramble, unwrapped: slot i's renewal is
// shifted back into slot i by the beats that follow it.
func TestRenewReusesScrambledSlots(t *testing.T) {
	env := proto.Env{N: 4, F: 1, ID: 0, Rng: rand.New(rand.NewSource(1))}
	p := New(env, coin.FMFactory{})
	p.Scramble(rand.New(rand.NewSource(2)))
	want := make([]coin.Flipper, len(p.slots))
	wrapped := 0
	for i, s := range p.slots {
		want[i] = s
		if c, ok := s.(*corruptFlipper); ok {
			want[i] = c.inner
			wrapped++
		}
	}
	if wrapped == 0 {
		t.Fatal("the scramble corrupted no slot; pick another seed")
	}
	for beat := uint64(0); beat < uint64(len(p.slots)); beat++ {
		p.Compose(beat)
		p.Deliver(beat, nil)
	}
	for i, s := range p.slots {
		if s != want[i] {
			t.Errorf("slot %d holds a new %T, not its renewed instance", i, s)
		}
	}
}
