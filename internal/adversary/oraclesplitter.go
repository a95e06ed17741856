package adversary

import "ssbyzclock/internal/core"

// OracleSplitter is the resiliency-boundary attack (E7): a clock-layer
// splitter that additionally knows the random bit the receivers will use
// to interpret ⊥ votes this beat (BitOracle). Within f < n/3 the oracle
// is worthless — at most one value can reach the n-f quorum per beat
// (2(n-2f) > n-f), so honest nodes can never be flipped to two different
// defined clocks. Once f ≥ n/3 that arithmetic flips: the attacker can
// hand one half of the honest nodes a quorum for 0 and the other half a
// quorum for 1 simultaneously, and with the bit known it keeps the two
// groups perfectly balanced forever.
//
// The oracle models what the paper concedes in §6.1 — the adversary sees
// the coin's output in the beat it is produced — and becomes *exact*
// when the coin itself has collapsed (e.g. recovery corrupted beyond the
// Berlekamp–Welch budget makes every pipeline emit a constant), which is
// precisely what happens past the bound under RecoverCorruptor.
type OracleSplitter struct {
	Ctx *Context
	// BitOracle reports the bit receivers will substitute for ⊥ this
	// beat; nil means assume 0.
	BitOracle func() byte
	tallies   clockTallies
}

// Act implements Adversary.
func (a *OracleSplitter) Act(_ uint64, composed []Sends, visible []Intercept) []Sends {
	bit := byte(0)
	if a.BitOracle != nil {
		bit = a.BitOracle()
	}
	a.tallies.count(a.Ctx.N, visible)
	quorum := a.Ctx.N - a.Ctx.F
	f := a.Ctx.F
	return a.tallies.split(a.Ctx, composed, func(to int, t *clockTally) int {
		// Effective honest votes: ⊥ counts as the oracle's bit.
		eff := [2]int{t.votes[0], t.votes[1]}
		if bit <= 1 {
			eff[bit] += t.votes[core.Bot]
		}
		// Can both values be pushed over the quorum (only possible
		// when f >= n/3)? Then split the recipients.
		if eff[0]+f >= quorum && eff[1]+f >= quorum {
			// Parity split keeps the two honest groups balanced no
			// matter where the faulty ids sit, so the mixed state is
			// reproduced exactly each beat: a quorum for 0 flips to 1
			// and vice versa.
			return to % 2
		}
		// Otherwise boost the minority to starve the majority's
		// quorum where possible.
		if eff[0] >= eff[1] {
			return 1
		}
		return 0
	})
}
