package adversary

import (
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/proto"
)

// Phase3Splitter attacks ss-Byz-Clock-Sync's agreement phases. It
// equivocates the full-clock, propose and bit messages per recipient to
// keep honest nodes' save values and quorum views divergent; the bit
// votes are steered using BitOracle, the random bit the honest nodes will
// consult in the next phase-3 fallback.
//
// Against the published algorithm the oracle is worthless: the fallback
// bit is produced by the coin one round *after* the bit votes are
// committed, so BitOracle (which can only report an already-public bit)
// carries no information about it, and Lemma 8 gives constant
// per-cycle agreement probability. Against the stale-rand ablation
// variant (core.NewClockSyncStale) the fallback uses exactly the bit the
// oracle reports, letting the splitter arrange, deterministically, that
// quorum-seeing nodes and fallback nodes decide differently — the
// operational content of Remark 3.1. Experiment E6 measures both.
type Phase3Splitter struct {
	Ctx *Context
	// BitOracle reports the most recent publicly-known random bit (e.g.
	// an honest node's current pipeline output). Nil disables steering
	// and the splitter equivocates randomly.
	BitOracle func() byte
}

// Act implements Adversary.
func (a *Phase3Splitter) Act(_ uint64, composed []Sends, _ []Intercept) []Sends {
	bit := byte(0)
	haveBit := false
	if a.BitOracle != nil {
		bit = a.BitOracle()
		haveBit = true
	}
	out := make([]Sends, 0, len(composed))
	for _, s := range composed {
		rewritten := PerRecipient(a.Ctx.N, s.Out, func(to int, _ Path, leaf proto.Message) proto.Message {
			lowHalf := to < a.Ctx.N/2
			switch m := leaf.(type) {
			case core.FullClockMsg:
				// Split the full-clock views so propose quorums are hard
				// to form and different halves chase different values.
				if lowHalf {
					return Forward
				}
				return core.FullClockMsg{V: m.V + 1}
			case core.ProposeMsg:
				// Starve half the nodes of proposals.
				if lowHalf {
					return Forward
				}
				return core.ProposeMsg{Bot: true}
			case core.BitMsg:
				if !haveBit {
					return core.BitMsg{B: uint8(a.Ctx.Rng.Intn(2))}
				}
				// Steer: nodes we push over the "1" quorum adopt save+3;
				// nodes starved of the quorum fall back on the random
				// bit. If the upcoming fallback bit is 0 (-> clock 0), we
				// want the other half on save+3, so feed them 1s; and
				// vice versa — under the stale variant this forces a
				// split whenever the honest votes cooperate.
				if bit == 0 {
					if lowHalf {
						return core.BitMsg{B: 1}
					}
					return core.BitMsg{B: 0}
				}
				if lowHalf {
					return core.BitMsg{B: 0}
				}
				return core.BitMsg{B: 1}
			default:
				return Forward
			}
		})
		out = append(out, Sends{From: s.From, Out: rewritten})
	}
	return out
}
