package adversary

import (
	"ssbyzclock/internal/baseline"
	"ssbyzclock/internal/field"
	"ssbyzclock/internal/gvss"
	"ssbyzclock/internal/proto"
)

// Chain composes adversaries: each transforms the faulty nodes' sends in
// turn (all see the same rushing view). Used to stack orthogonal attacks,
// e.g. clock splitting plus coin-recovery corruption for the E7
// resiliency-boundary experiment.
type Chain struct {
	Advs []Adversary
}

// Act implements Adversary.
func (c Chain) Act(beat uint64, composed []Sends, visible []Intercept) []Sends {
	out := composed
	for _, a := range c.Advs {
		out = a.Act(beat, out, visible)
	}
	return out
}

// KingSpoiler attacks the deterministic PhaseKing baseline: whenever a
// faulty node holds the rotating king slot it equivocates its king value
// per recipient, keeping the honest nodes split for the whole epoch; it
// also equivocates its clock broadcasts and withholds proposals so no
// accidental quorum forms. Placed on the *first* f ids (so the rotation
// visits every faulty king before the first honest one), it forces the
// baseline's worst case: convergence after Θ(f) epochs.
type KingSpoiler struct {
	Ctx *Context
}

// Act implements Adversary.
func (a *KingSpoiler) Act(_ uint64, composed []Sends, _ []Intercept) []Sends {
	out := make([]Sends, 0, len(composed))
	for _, s := range composed {
		rewritten := PerRecipient(a.Ctx.N, s.Out, func(to int, _ Path, leaf proto.Message) proto.Message {
			switch m := leaf.(type) {
			case baseline.KingMsg:
				// A different value for every recipient: nobody who
				// falls back on this king ends up agreeing with anyone.
				return baseline.KingMsg{V: m.V + uint64(to) + 1}
			case baseline.ClockMsg:
				return baseline.ClockMsg{V: m.V + uint64(to)%2}
			case baseline.PhaseProposeMsg:
				return baseline.PhaseProposeMsg{Bot: true}
			case baseline.PhaseBitMsg:
				return baseline.PhaseBitMsg{B: 0}
			default:
				return Forward
			}
		})
		out = append(out, Sends{From: s.From, Out: rewritten})
	}
	return out
}

// RecoverCorruptor attacks the common coin's reconstruction round: the
// faulty nodes send random garbage shares, equivocated per recipient, in
// every GVSS recover message while behaving honestly otherwise. Within
// the f < n/3 bound Berlekamp–Welch decoding removes the f corrupt
// shares exactly; beyond the bound reconstruction collapses and with it
// the coin — the mechanism behind the E7 resiliency cliff.
type RecoverCorruptor struct {
	Ctx *Context
}

// Act implements Adversary.
func (a *RecoverCorruptor) Act(_ uint64, composed []Sends, _ []Intercept) []Sends {
	out := make([]Sends, 0, len(composed))
	for _, s := range composed {
		rewritten := PerRecipient(a.Ctx.N, s.Out, func(to int, _ Path, leaf proto.Message) proto.Message {
			m, ok := gvss.AsRecover(leaf)
			if !ok {
				return Forward
			}
			n := len(m.Shares)
			corrupted := gvss.RecoverMsg{
				Shares: make([][]field.Elem, n),
				HasRow: make([][]bool, n),
			}
			for d := 0; d < n; d++ {
				corrupted.Shares[d] = make([]field.Elem, len(m.Shares[d]))
				corrupted.HasRow[d] = make([]bool, len(m.HasRow[d]))
				for t := range m.Shares[d] {
					corrupted.Shares[d][t] = field.Reduce(a.Ctx.Rng.Uint64())
					corrupted.HasRow[d][t] = true
				}
			}
			return corrupted
		})
		out = append(out, Sends{From: s.From, Out: rewritten})
	}
	return out
}
