package coin

import (
	"math/rand"
	"slices"
	"testing"

	"ssbyzclock/internal/proto"
)

func env(n, f, id int, seed int64) proto.Env {
	return proto.Env{N: n, F: f, ID: id, Rng: rand.New(rand.NewSource(seed))}
}

// runFlippers drives one instance per node through all rounds with
// perfect delivery and returns the outputs.
func runFlippers(t *testing.T, factory Factory, n, f int, seed int64) []byte {
	t.Helper()
	flippers := make([]Flipper, n)
	for i := 0; i < n; i++ {
		flippers[i] = factory.New(env(n, f, i, seed+int64(i)), 7)
	}
	for round := 1; round <= factory.Rounds(); round++ {
		inboxes := make([][]proto.Recv, n)
		for i, fl := range flippers {
			for _, s := range fl.Compose(round) {
				if s.To == proto.Broadcast {
					for to := 0; to < n; to++ {
						inboxes[to] = append(inboxes[to], proto.Recv{From: i, Msg: s.Msg})
					}
				} else if s.To >= 0 && s.To < n {
					inboxes[s.To] = append(inboxes[s.To], proto.Recv{From: i, Msg: s.Msg})
				}
			}
		}
		for i, fl := range flippers {
			fl.Deliver(round, inboxes[i])
		}
	}
	out := make([]byte, n)
	for i, fl := range flippers {
		out[i] = fl.Output()
	}
	return out
}

func TestFMAllHonestAgree(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		out := runFlippers(t, FMFactory{}, 4, 1, seed)
		for i := 1; i < len(out); i++ {
			if out[i] != out[0] {
				t.Fatalf("seed %d: outputs %v", seed, out)
			}
		}
	}
}

func TestFMBothValuesOccur(t *testing.T) {
	seen := map[byte]int{}
	for seed := int64(0); seed < 40; seed++ {
		out := runFlippers(t, FMFactory{}, 4, 1, seed*31)
		seen[out[0]]++
	}
	if seen[0] < 5 || seen[1] < 5 {
		t.Fatalf("coin badly biased over seeds: %v", seen)
	}
}

func TestFMOutputBeforeDoneIsZero(t *testing.T) {
	fl := FMFactory{}.New(env(4, 1, 0, 1), 0)
	if fl.Output() != 0 {
		t.Fatal("unfinished flipper must output 0")
	}
}

func TestFMRejectsSmallAcceptSets(t *testing.T) {
	// A Byzantine accept set smaller than n-f must be ignored: feed one
	// directly into round 4 and verify it never becomes the leader basis.
	n, f := 4, 1
	flippers := make([]Flipper, n)
	for i := 0; i < n; i++ {
		flippers[i] = FMFactory{}.New(env(n, f, i, int64(i)+100), 0)
	}
	for round := 1; round <= FMRounds; round++ {
		inboxes := make([][]proto.Recv, n)
		for i, fl := range flippers {
			for _, s := range fl.Compose(round) {
				if s.To == proto.Broadcast {
					for to := 0; to < n; to++ {
						inboxes[to] = append(inboxes[to], proto.Recv{From: i, Msg: s.Msg})
					}
				} else if s.To >= 0 && s.To < n {
					inboxes[s.To] = append(inboxes[s.To], proto.Recv{From: i, Msg: s.Msg})
				}
			}
		}
		if round == 4 {
			// Node 3 equivocates a tiny accept set to everyone.
			for to := 0; to < n; to++ {
				inboxes[to] = append(inboxes[to], proto.Recv{From: 3, Msg: &AcceptMsg{Set: []uint16{0}}})
			}
		}
		for i, fl := range flippers {
			fl.Deliver(round, inboxes[i])
		}
	}
	// All honest still agree (the malformed accept claim is dropped; the
	// duplicate-from-3 rule keeps only the first).
	out := make([]byte, n)
	for i, fl := range flippers {
		out[i] = fl.Output()
	}
	for i := 1; i < n; i++ {
		if out[i] != out[0] {
			t.Fatalf("outputs diverged: %v", out)
		}
	}
}

func TestDedupSet(t *testing.T) {
	got := dedupSet([]uint16{3, 1, 3, 9, 1, 2}, 5)
	want := []uint16{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("dedupSet = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dedupSet = %v, want %v", got, want)
		}
	}
}

func TestRabinSameBitEverywhere(t *testing.T) {
	fa := RabinFactory{Seed: 9}
	for beat := uint64(0); beat < 50; beat++ {
		var bits []byte
		for id := 0; id < 5; id++ {
			fl := fa.New(env(5, 1, id, int64(id)), beat)
			fl.Deliver(1, nil)
			bits = append(bits, fl.Output())
		}
		for _, b := range bits {
			if b != bits[0] {
				t.Fatalf("beat %d: rabin bits differ: %v", beat, bits)
			}
		}
	}
}

func TestRabinSeedAndBeatChangeBits(t *testing.T) {
	differs := false
	for beat := uint64(0); beat < 16; beat++ {
		a := RabinFactory{Seed: 1}.New(env(4, 1, 0, 1), beat)
		b := RabinFactory{Seed: 2}.New(env(4, 1, 0, 1), beat)
		a.Deliver(1, nil)
		b.Deliver(1, nil)
		if a.Output() != b.Output() {
			differs = true
		}
	}
	if !differs {
		t.Fatal("seed has no effect on rabin tape")
	}
}

func TestLocalCoinIndependent(t *testing.T) {
	disagreements := 0
	for seed := int64(0); seed < 30; seed++ {
		var bits []byte
		for id := 0; id < 6; id++ {
			fl := LocalFactory{}.New(env(6, 1, id, seed*100+int64(id)), 0)
			fl.Deliver(1, nil)
			bits = append(bits, fl.Output())
		}
		for _, b := range bits {
			if b != bits[0] {
				disagreements++
				break
			}
		}
	}
	if disagreements < 15 {
		t.Fatalf("local coin agreed too often: %d/30 disagreements", disagreements)
	}
}

func TestFMSilentDealerStillAgrees(t *testing.T) {
	// Node 0 never sends anything (crash). Remaining nodes must still
	// produce a common output: the silent node's dealings are graded
	// none and excluded from every accept set.
	n, f := 4, 1
	flippers := make([]Flipper, n)
	for i := 0; i < n; i++ {
		flippers[i] = FMFactory{}.New(env(n, f, i, int64(i)+200), 0)
	}
	for round := 1; round <= FMRounds; round++ {
		inboxes := make([][]proto.Recv, n)
		for i, fl := range flippers {
			if i == 0 {
				fl.Compose(round) // state advances, output dropped
				continue
			}
			for _, s := range fl.Compose(round) {
				if s.To == proto.Broadcast {
					for to := 0; to < n; to++ {
						inboxes[to] = append(inboxes[to], proto.Recv{From: i, Msg: s.Msg})
					}
				} else if s.To >= 0 && s.To < n {
					inboxes[s.To] = append(inboxes[s.To], proto.Recv{From: i, Msg: s.Msg})
				}
			}
		}
		for i, fl := range flippers {
			fl.Deliver(round, inboxes[i])
		}
	}
	for i := 2; i < n; i++ {
		if flippers[i].Output() != flippers[1].Output() {
			t.Fatalf("outputs diverged despite only a crash fault")
		}
	}
}

// TestFMAcceptTable drives deliverAccept with one crafted set per
// sender and reads the length table back: sets that deduplicate below
// n-f, short sets and oversized garbage are rejected, an oversized set
// of valid ids and a full set of n are stored deduplicated and sorted,
// a sender's second set is ignored, and Renew clears the table.
func TestFMAcceptTable(t *testing.T) {
	const n, f = 7, 2
	c := FMFactory{}.New(env(n, f, 0, 1), 0).(*fmFlipper)
	full := []uint16{0, 1, 2, 3, 4, 5, 6}
	var garbage, oversized []uint16
	for i := 0; i < 3*n; i++ {
		garbage = append(garbage, uint16(n+i))
		oversized = append(oversized, uint16(n-1-i%n))
	}
	c.deliverAccept([]proto.Recv{
		{From: 0, Msg: &AcceptMsg{Set: []uint16{1, 1, 1, 2, 2, 3, 3, 3}}},
		{From: 1, Msg: &AcceptMsg{Set: []uint16{0, 1, 2, 3}}},
		{From: 2, Msg: &AcceptMsg{Set: garbage}},
		{From: 3, Msg: &AcceptMsg{Set: []uint16{6, 5, 4, 3, 2, 1, 0}}},
		{From: 4, Msg: &AcceptMsg{Set: []uint16{4, 0, 2, 1, 3}}},
		{From: 4, Msg: &AcceptMsg{Set: full}},
		{From: 6, Msg: &AcceptMsg{Set: oversized}},
		{From: -1, Msg: &AcceptMsg{Set: full}},
		{From: n, Msg: &AcceptMsg{Set: full}},
	})
	want := [n][]uint16{3: full, 4: {0, 1, 2, 3, 4}, 6: full}
	for j := 0; j < n; j++ {
		got := c.accepted(j)
		if (got == nil) != (want[j] == nil) || !slices.Equal(got, want[j]) {
			t.Errorf("node %d: accepted %v, want %v", j, got, want[j])
		}
	}
	c = FMFactory{}.Renew(c, env(n, f, 0, 2), 0).(*fmFlipper)
	for j := 0; j < n; j++ {
		if got := c.accepted(j); got != nil {
			t.Errorf("node %d: accepted %v after Renew, want none", j, got)
		}
	}
}
