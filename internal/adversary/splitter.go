package adversary

import (
	"slices"

	"ssbyzclock/internal/core"
	"ssbyzclock/internal/proto"
)

// ClockSplitter is a rushing, protocol-aware attack on the 2-clock layer:
// it reads the honest nodes' clock broadcasts (visible because they are
// broadcasts), tallies the effective votes per 2-clock instance, and then
// equivocates its own clock values per recipient to keep the cluster
// split — boosting the minority value at recipients it wants blocked
// below the n-f quorum and the majority at the rest.
//
// Against the published algorithm (VariantCorrect) this cannot defeat
// Lemma 4: honest ⊥ broadcasts are substituted with the *current* beat's
// common random bit by receivers, a bit this adversary does not use, so
// with constant probability per beat every honest tally reaches quorum on
// the same value no matter what the splitter adds. Against
// VariantPreRand (Remark 3.1's broken scheme) the ⊥ senders reveal their
// substituted bit inside their broadcasts, the tally below becomes exact,
// and the splitter stalls convergence — experiment E6.
//
// All non-2-clock traffic (coin, clock-sync phases) is forwarded
// honestly, which keeps the attack surgical and the coin alive.
type ClockSplitter struct {
	Ctx     *Context
	tallies clockTallies
}

// Act implements Adversary.
func (a *ClockSplitter) Act(_ uint64, composed []Sends, visible []Intercept) []Sends {
	// Tally honest clock votes per 2-clock instance (per path). ⊥ votes
	// are counted separately: under VariantCorrect their effective value
	// is the receiver's fresh random bit, unknown here.
	a.tallies.count(a.Ctx.N, visible)
	quorum := a.Ctx.N - a.Ctx.F
	return a.tallies.split(a.Ctx.N, composed, func(to int, t *clockTally) int {
		v0, v1, bot := t.votes[0], t.votes[1], t.votes[core.Bot]
		// Split the recipients: the low half is pushed toward 0, the
		// high half toward 1 — unless one value already has quorum
		// from honest votes alone, in which case boost the other
		// side at every recipient to fight the emerging agreement.
		push := 0
		if to >= a.Ctx.N/2 {
			push = 1
		}
		switch {
		case v0 >= quorum:
			push = 1
		case v1 >= quorum:
			push = 0
		case v0 > v1 && v0+bot >= quorum:
			push = 1
		case v1 > v0 && v1+bot >= quorum:
			push = 0
		}
		return push
	})
}

// clockTally is one 2-clock instance's visible honest votes, indexed by
// value (0, 1, core.Bot), each sender counted once.
type clockTally struct {
	path  Path
	votes [3]int
	seen  []bool // by sender id
}

// clockTallies holds one beat's clockTally per 2-clock instance path.
// Its backing is reused beat to beat, and a stack has only a few 2-clock
// instances, so lookup is a linear search.
type clockTallies []clockTally

// count rebuilds the tallies from a beat's visible honest traffic.
// Garbage clock values mark their sender seen but count for nothing.
func (ts *clockTallies) count(n int, visible []Intercept) {
	*ts = (*ts)[:0]
	for _, ic := range visible {
		path, leaf := Unwrap(ic.Msg)
		m, ok := leaf.(core.TwoClockMsg)
		if !ok {
			continue
		}
		t := ts.find(path)
		if t == nil { // reuse the next slot, seen backing and all
			*ts = slices.Grow(*ts, 1)[:len(*ts)+1]
			t = &(*ts)[len(*ts)-1]
			t.path, t.votes, t.seen = path, [3]int{}, append(t.seen[:0], make([]bool, n)...)
		}
		if ic.From < 0 || ic.From >= n || t.seen[ic.From] {
			continue
		}
		t.seen[ic.From] = true
		if m.V <= core.Bot {
			t.votes[m.V]++
		}
	}
}

// find returns path's tally, or nil if it has none.
func (ts clockTallies) find(path Path) *clockTally {
	for i := range ts {
		if ts[i].path == path {
			return &ts[i]
		}
	}
	return nil
}

// twoClockVotes are the two defined 2-clock votes, boxed once: boxing a
// TwoClockMsg per rewritten copy would allocate.
var twoClockVotes = [2]proto.Message{core.TwoClockMsg{V: 0}, core.TwoClockMsg{V: 1}}

// split equivocates the faulty nodes' 2-clock votes, vote picking each
// copy's value (0 or 1) from its instance's tally. All other traffic, and
// votes of an instance no honest node voted in, is forwarded.
func (ts clockTallies) split(n int, composed []Sends, vote func(to int, t *clockTally) int) []Sends {
	rewrite := func(to int, path Path, leaf proto.Message) proto.Message {
		if _, ok := leaf.(core.TwoClockMsg); !ok {
			return Forward
		}
		if t := ts.find(path); t != nil {
			return twoClockVotes[vote(to, t)]
		}
		return Forward
	}
	out := make([]Sends, 0, len(composed))
	for _, s := range composed {
		out = append(out, Sends{From: s.From, Out: PerRecipient(n, s.Out, rewrite)})
	}
	return out
}
