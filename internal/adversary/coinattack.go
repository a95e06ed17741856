package adversary

import (
	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/field"
	"ssbyzclock/internal/gvss"
	"ssbyzclock/internal/proto"
)

// GradeSplitter attacks the common coin's agreement: the faulty nodes
// participate in GVSS honestly except that they equivocate their vote and
// accept-set broadcasts per recipient, trying to split the honest nodes'
// grades across the GradeHigh/GradeLow/GradeNone thresholds so that
// different honest nodes compute different lottery tickets. The coin's
// design confines the damage to Byzantine nodes' own tickets (honest
// dealers reach GradeHigh everywhere, honest targets' accept sets are
// consistent), so agreement probability must remain constant — measured
// in experiment E2.
type GradeSplitter struct {
	Ctx *Context
}

// Act implements Adversary.
func (a *GradeSplitter) Act(_ uint64, composed []Sends, _ []Intercept) []Sends {
	out := outSends(a.Ctx, len(composed))
	for _, s := range composed {
		rewritten := PerRecipient(a.Ctx, s.Out, func(to int, _ Path, leaf proto.Message) proto.Message {
			if m, isVote := leaf.(*gvss.VoteMsg); isVote {
				// Flip each vote with probability 1/2, independently per
				// recipient: recipients near the n-f threshold land on
				// different sides of it. Row-major, one draw per entry.
				ok := make([]bool, len(m.OK))
				for i, v := range m.OK {
					ok[i] = v != (a.Ctx.Rng.Intn(2) == 0)
				}
				return &gvss.VoteMsg{OK: ok}
			}
			if m, isAccept := leaf.(*coin.AcceptMsg); isAccept {
				// Equivocate the accept set per recipient by shuffling
				// and resending a random subset (kept above the n-f
				// minimum so it is not rejected outright).
				min := a.Ctx.N - a.Ctx.F
				set := append([]uint16(nil), m.Set...)
				a.Ctx.Rng.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
				if len(set) > min {
					set = set[:min+a.Ctx.Rng.Intn(len(set)-min+1)]
				}
				return &coin.AcceptMsg{Set: set}
			}
			return Forward
		})
		out = append(out, Sends{From: s.From, Out: rewritten})
	}
	return out
}

// ShareCorruptor attacks the GVSS dealing itself: the faulty nodes deal
// inconsistent rows (random garbage to a random half of the recipients)
// while participating honestly otherwise. Honest nodes' row-fixing and
// grading must contain the damage to the faulty dealers' own dealings.
type ShareCorruptor struct {
	Ctx *Context
}

// Act implements Adversary.
func (a *ShareCorruptor) Act(_ uint64, composed []Sends, _ []Intercept) []Sends {
	out := outSends(a.Ctx, len(composed))
	for _, s := range composed {
		rewritten := PerRecipient(a.Ctx, s.Out, func(to int, _ Path, leaf proto.Message) proto.Message {
			m, ok := leaf.(*gvss.ShareMsg)
			if !ok || a.Ctx.Rng.Intn(2) == 0 {
				return Forward
			}
			corrupted := &gvss.ShareMsg{Rows: make([]field.Poly, len(m.Rows))}
			for t := range m.Rows {
				row := make(field.Poly, len(m.Rows[t]))
				for c := range row {
					row[c] = field.Reduce(a.Ctx.Rng.Uint64())
				}
				corrupted.Rows[t] = row
			}
			return corrupted
		})
		out = append(out, Sends{From: s.From, Out: rewritten})
	}
	return out
}
