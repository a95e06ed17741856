package core

// White-box unit tests of ss-Byz-Clock-Sync's phase machinery, exercising
// Figure 4's blocks in isolation from the simulation engine.

import (
	"math/rand"
	"testing"

	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/proto"
)

func unitEnv(id int) proto.Env {
	return proto.Env{N: 4, F: 1, ID: id, Rng: rand.New(rand.NewSource(int64(id) + 1))}
}

// driveToPhase advances a single isolated node (fed only its own
// messages) until its 4-clock reports the wanted phase at compose time,
// returning the beat to use next. The embedded clocks converge alone
// because a single sender forms its own quorum at n=1... at n=4 it
// cannot, so we instead drive four nodes in lockstep and return them.
func driveCluster(l Layout, t *testing.T, k uint64, beats int) []*ClockSync {
	t.Helper()
	nodes := make([]*ClockSync, 4)
	for i := range nodes {
		nodes[i] = NewClockSyncLayout(unitEnv(i), k, coin.RabinFactory{Seed: 5}, false, l)
	}
	for beat := uint64(0); beat < uint64(beats); beat++ {
		inboxes := make([][]proto.Recv, len(nodes))
		for id, nd := range nodes {
			for _, s := range nd.Compose(beat) {
				if s.To == proto.Broadcast {
					for to := range inboxes {
						inboxes[to] = append(inboxes[to], proto.Recv{From: id, Msg: s.Msg})
					}
				} else if s.To >= 0 && s.To < len(nodes) {
					inboxes[s.To] = append(inboxes[s.To], proto.Recv{From: id, Msg: s.Msg})
				}
			}
		}
		for id, nd := range nodes {
			nd.Deliver(beat, inboxes[id])
		}
	}
	return nodes
}

func TestPhasesCycleAfterConvergence(t *testing.T) {
	for _, l := range Layouts {
		t.Run(l.String(), func(t *testing.T) {
			nodes := driveCluster(l, t, 16, 40)
			// All nodes must report the same phase, and phases must cycle
			// 0,1,2,3 over the next beats.
			var seq []uint64
			for beat := uint64(40); beat < 48; beat++ {
				inboxes := make([][]proto.Recv, len(nodes))
				for id, nd := range nodes {
					for _, s := range nd.Compose(beat) {
						if s.To == proto.Broadcast {
							for to := range inboxes {
								inboxes[to] = append(inboxes[to], proto.Recv{From: id, Msg: s.Msg})
							}
						}
					}
				}
				p0, ok := nodes[0].Phase()
				if !ok {
					t.Fatal("phase undefined after 40 beats")
				}
				for _, nd := range nodes[1:] {
					p, ok := nd.Phase()
					if !ok || p != p0 {
						t.Fatalf("phases diverged: %d vs %d", p0, p)
					}
				}
				seq = append(seq, p0)
				for id, nd := range nodes {
					nd.Deliver(beat, inboxes[id])
				}
			}
			for i := 1; i < len(seq); i++ {
				if seq[i] != (seq[i-1]+1)%4 {
					t.Fatalf("phase sequence broken: %v", seq)
				}
			}
		})
	}
}

func TestFullClockAlwaysBelowModulus(t *testing.T) {
	for _, l := range Layouts {
		t.Run(l.String(), func(t *testing.T) {
			nodes := driveCluster(l, t, 7, 60) // non-power-of-two modulus
			for _, nd := range nodes {
				v, ok := nd.Clock()
				if !ok || v >= 7 {
					t.Fatalf("clock %d out of range for k=7", v)
				}
			}
		})
	}
}

func TestTallyValidation(t *testing.T) {
	for _, l := range Layouts {
		t.Run(l.String(), func(t *testing.T) {
			// Feed one node Byzantine phase traffic directly: out-of-range full
			// clocks and bits must not enter the tallies used next beat.
			nd := NewClockSyncLayout(unitEnv(0), 8, coin.RabinFactory{Seed: 1}, false, l)
			nd.Compose(0)
			nd.Deliver(0, []proto.Recv{
				{From: 1, Msg: proto.Envelope{Child: clockSyncChildMsg, Inner: FullClockMsg{V: 99}}},  // >= k
				{From: 2, Msg: proto.Envelope{Child: clockSyncChildMsg, Inner: BitMsg{B: 7}}},         // not 0/1
				{From: 3, Msg: proto.Envelope{Child: clockSyncChildMsg, Inner: &ProposeMsg{V: 1000}}}, // >= k
				{From: -1, Msg: proto.Envelope{Child: clockSyncChildMsg, Inner: FullClockMsg{V: 1}}},  // bad sender
				{From: 99, Msg: proto.Envelope{Child: clockSyncChildMsg, Inner: FullClockMsg{V: 1}}},  // bad sender
			})
			if nd.prev.fullClock.size() != 0 || nd.prev.propose.size() != 0 || nd.prev.bits != [2]int{} {
				t.Fatalf("invalid traffic entered tallies: %+v", nd.prev)
			}
		})
	}
}

func TestTallyDedupPerSender(t *testing.T) {
	for _, l := range Layouts {
		t.Run(l.String(), func(t *testing.T) {
			nd := NewClockSyncLayout(unitEnv(0), 8, coin.RabinFactory{Seed: 2}, false, l)
			nd.Compose(0)
			inbox := []proto.Recv{}
			for i := 0; i < 5; i++ {
				inbox = append(inbox, proto.Recv{From: 1, Msg: proto.Envelope{Child: clockSyncChildMsg, Inner: FullClockMsg{V: 3}}})
			}
			nd.Deliver(0, inbox)
			if nd.prev.fullClock.get(3) != 1 {
				t.Fatalf("duplicate sender counted %d times", nd.prev.fullClock.get(3))
			}
		})
	}
}

func TestScrambleLeavesUsableState(t *testing.T) {
	for _, l := range Layouts {
		t.Run(l.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			nd := NewClockSyncLayout(unitEnv(0), 8, coin.RabinFactory{Seed: 3}, false, l)
			for i := 0; i < 50; i++ {
				nd.Scramble(rng)
				beat := uint64(i)
				nd.Compose(beat)
				nd.Deliver(beat, nil)
				if v, ok := nd.Clock(); !ok || v >= 8 {
					t.Fatalf("clock invalid after scramble: %d %v", v, ok)
				}
			}
		})
	}
}
