package coin_test

// Tests and fuzz harness for the shared-pipeline consumer derivation:
// per-consumer coin values must be deterministic functions of (consumer
// label, shared per-beat word) alone — independent of subscription
// order — collision-free across labels, and never degenerate (a
// constant stream) for bit-only drivers. The worker-count half of the
// replay guarantee (Config.Workers 1 vs 8, byte-identical) is asserted
// at stack level by the differential harness (internal/difftest).

import (
	"math/rand"
	"testing"

	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/proto"
)

// mix64 is SplitMix64, re-declared here so the tests do not depend on
// the package's internal mixer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// scriptDriver is a coin.Driver replaying a deterministic word sequence:
// beat t's output word is the t-th element, the bit its low bit.
type scriptDriver struct {
	seed uint64
	rich bool
	step int
	word uint64
}

func (d *scriptDriver) Compose(uint64) []proto.Send { return nil }
func (d *scriptDriver) Bit() byte                   { return byte(d.word & 1) }
func (d *scriptDriver) Word() (uint64, bool)        { return d.word, d.rich }
func (d *scriptDriver) Rounds() int                 { return 1 }
func (d *scriptDriver) Scramble(*rand.Rand)         {}
func (d *scriptDriver) Deliver(uint64, []proto.Recv) {
	d.step++
	d.word = mix64(d.seed + uint64(d.step))
}

func labelSet(n int) []string {
	labels := make([]string, n)
	for i := range labels {
		labels[i] = string(rune('a'+i%26)) + "/consumer" + string(rune('0'+i/26))
	}
	return labels
}

// runDerivation subscribes the labels in the given order onto a fresh
// SharedPipeline over a scripted driver, steps it beats times, and
// returns each label's bit stream keyed by label.
func runDerivation(seed uint64, rich bool, labels []string, order []int, beats int) map[string][]byte {
	sp := coin.NewSharedPipeline(&scriptDriver{seed: seed, rich: rich})
	feeds := make(map[string]coin.Feed, len(labels))
	for _, idx := range order {
		feeds[labels[idx]] = sp.Subscribe(labels[idx])
	}
	streams := make(map[string][]byte, len(labels))
	for b := 0; b < beats; b++ {
		sp.Deliver(uint64(b), nil)
		for _, l := range labels {
			streams[l] = append(streams[l], feeds[l].Bit())
		}
	}
	return streams
}

// FuzzConsumerDerivation: for arbitrary word tapes, label counts and
// subscription orders, each consumer's stream depends only on its label
// (identical across subscription orders and reruns), label salts never
// collide, and no consumer's stream is constant while the shared word
// tape varies — the degenerate-derivation failure the XOR fallback rule
// exists to prevent.
func FuzzConsumerDerivation(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint8(3), true)
	f.Add(uint64(42), uint64(7), uint8(8), false)
	f.Add(uint64(0), uint64(0), uint8(0), true)
	f.Fuzz(func(t *testing.T, seed, permSeed uint64, nLabels uint8, rich bool) {
		const beats = 64
		n := 2 + int(nLabels%8)
		labels := labelSet(n)

		// Salt collision-freedom over this label set.
		salts := make(map[uint64]string, n)
		for _, l := range labels {
			s := coin.LabelSalt(l)
			if prev, dup := salts[s]; dup {
				t.Fatalf("salt collision: %q and %q -> %#x", prev, l, s)
			}
			salts[s] = l
		}

		// Identity order, a permuted order, and an identity rerun.
		identity := make([]int, n)
		for i := range identity {
			identity[i] = i
		}
		perm := append([]int(nil), identity...)
		prng := rand.New(rand.NewSource(int64(mix64(permSeed))))
		prng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })

		base := runDerivation(seed, rich, labels, identity, beats)
		permuted := runDerivation(seed, rich, labels, perm, beats)
		rerun := runDerivation(seed, rich, labels, identity, beats)

		for _, l := range labels {
			for b := 0; b < beats; b++ {
				if base[l][b] != permuted[l][b] {
					t.Fatalf("label %q beat %d: subscription order changed the stream", l, b)
				}
				if base[l][b] != rerun[l][b] {
					t.Fatalf("label %q beat %d: rerun diverged", l, b)
				}
			}
			// The scripted tape walks a splitmix sequence, so both the words
			// and their parities vary; a constant consumer stream over 64
			// beats would mean the derivation collapsed (probability ~2^-63
			// for a healthy rule).
			first, constant := base[l][0], true
			for _, b := range base[l][1:] {
				if b != first {
					constant = false
					break
				}
			}
			if constant {
				t.Fatalf("label %q: constant derived stream (rich=%v)", l, rich)
			}
		}
	})
}

// TestDeriveBitBareNeverDegenerate: the bit-only fallback rule must map
// the two raw bit values to the two derived values for EVERY salt — the
// property that makes a bare-bit driver safe to share. (A hash-style
// rule fails this for about half of all salts.)
func TestDeriveBitBareNeverDegenerate(t *testing.T) {
	for i := 0; i < 4096; i++ {
		salt := mix64(uint64(i))
		d0 := coin.DeriveBit(0, false, 0, salt)
		d1 := coin.DeriveBit(1, false, 1, salt)
		if d0 == d1 {
			t.Fatalf("salt %#x: bare-bit derivation collapsed both raw bits to %d", salt, d0)
		}
		if d0 > 1 || d1 > 1 {
			t.Fatalf("salt %#x: derived bit out of range: %d %d", salt, d0, d1)
		}
	}
}

// TestDeriveBitRichDecorrelates: rich-word derivation gives different
// consumers effectively independent bits — over a window of words, two
// distinct salts must not produce identical or exactly-complementary
// streams (which is all the bare-bit rule can offer).
func TestDeriveBitRichDecorrelates(t *testing.T) {
	saltA, saltB := coin.LabelSalt("cs/4clock/a1"), coin.LabelSalt("cs/4clock/a2")
	same, beats := 0, 4096
	for i := 0; i < beats; i++ {
		w := mix64(uint64(i) * 0x9e3779b97f4a7c15)
		if coin.DeriveBit(w, true, byte(w&1), saltA) == coin.DeriveBit(w, true, byte(w&1), saltB) {
			same++
		}
	}
	if same < beats/3 || same > 2*beats/3 {
		t.Fatalf("streams for distinct salts not decorrelated: agree on %d/%d beats", same, beats)
	}
}

// TestSubscribeDuplicateLabelPanics: a duplicate label is a wiring bug
// (two sub-protocols would share one bit stream) and must fail loudly.
func TestSubscribeDuplicateLabelPanics(t *testing.T) {
	sp := coin.NewSharedPipeline(&scriptDriver{seed: 9, rich: true})
	sp.Subscribe("a1")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Subscribe did not panic")
		}
	}()
	sp.Subscribe("a1")
}

// TestSharedPipelineScrambleRecovers: after a scramble (arbitrary captured
// word), the next Deliver re-captures the driver's real output — the
// consumer streams resynchronize with an unscrambled pipeline in one beat.
func TestSharedPipelineScrambleRecovers(t *testing.T) {
	mk := func() (*coin.SharedPipeline, coin.Feed) {
		sp := coin.NewSharedPipeline(&scriptDriver{seed: 77, rich: true})
		return sp, sp.Subscribe("c")
	}
	a, fa := mk()
	b, fb := mk()
	for i := 0; i < 8; i++ {
		a.Deliver(uint64(i), nil)
		b.Deliver(uint64(i), nil)
	}
	a.Scramble(rand.New(rand.NewSource(5)))
	a.Deliver(8, nil)
	b.Deliver(8, nil)
	if fa.Bit() != fb.Bit() {
		t.Fatal("consumer stream did not resynchronize one beat after scramble")
	}
}
