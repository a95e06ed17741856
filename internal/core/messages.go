// Package core implements the paper's three digital clock synchronization
// algorithms: ss-Byz-2-Clock (Figure 2), ss-Byz-4-Clock (Figure 3) and
// ss-Byz-Clock-Sync (Figure 4) — self-stabilizing, Byzantine-tolerant
// (f < n/3) protocols converging in expected constant time.
//
// Timing convention. The engine executes one beat as Compose (send) then
// Deliver (receive everything sent this beat). Figure 2's "On beat" block
// broadcasts and then processes the same beat's messages, which maps
// directly. Figure 4's phases examine values "received in the previous
// beat", so ClockSync records a tally of each beat's messages in Deliver
// and consumes it in the next beat's phase logic.
package core

import "ssbyzclock/internal/pool"

// Bot is the ⊥ ("undefined") clock value of ss-Byz-2-Clock.
const Bot uint8 = 2

// TwoClockMsg is the per-beat clock broadcast of ss-Byz-2-Clock: V is 0,
// 1 or Bot. Any other value is Byzantine garbage and is ignored.
type TwoClockMsg struct {
	V uint8
}

// Kind implements proto.Message.
func (TwoClockMsg) Kind() string { return "core.clock2" }

// FullClockMsg is the phase-0 broadcast of ss-Byz-Clock-Sync: the
// sender's full clock value in [0, k).
type FullClockMsg struct {
	V uint64
}

// Kind implements proto.Message.
func (FullClockMsg) Kind() string { return "core.fullclock" }

// ProposeMsg is the phase-1 broadcast of ss-Byz-Clock-Sync: the value the
// sender saw an n-f quorum for, or ⊥ (Bot=true). Too wide for the
// runtime's allocation-free small-value boxes, it travels in pointer
// form only: ClockSync composes into a persistent slot, legal because a
// message is valid only for its beat.
type ProposeMsg struct {
	V   uint64
	Bot bool
}

// Kind implements proto.Message.
func (*ProposeMsg) Kind() string { return "core.propose" }

// ProposeKind is the proposal's lease kind, from which package wire's
// Decoder leases decoded proposals. Its poison is a value no clock has:
// a zero proposal is a real one.
var ProposeKind = pool.NewKind(ProposeMsg{V: ^uint64(0)})

// BitMsg is the phase-2 broadcast of ss-Byz-Clock-Sync: whether the
// sender saw an n-f quorum of non-⊥ proposals for its save value.
type BitMsg struct {
	B uint8 // 0 or 1; anything else is ignored
}

// Kind implements proto.Message.
func (BitMsg) Kind() string { return "core.bit" }
