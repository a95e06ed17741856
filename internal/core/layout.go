package core

import (
	"fmt"

	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/pool"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/sscoin"
)

// Layout selects how a clock stack wires its consumers to ss-Byz-Coin-
// Flip pipelines. Both layouts stay supported forever: the paper layout
// is the literal transcription of Figures 2-4, the shared layout is
// Remark 4.1's optimization, and the differential harness
// (internal/difftest) holds them equivalent under the full adversary
// suite.
type Layout uint8

const (
	// LayoutShared (what every constructor without a Layout argument
	// builds) runs ONE ss-Byz-Coin-Flip pipeline per node, owned by the
	// stack's root protocol; every consumer (the clock-sync phase
	// machinery, the 4-clock's A1/A2 2-clocks, each power-clock level)
	// reads a per-consumer bit derived from the shared per-beat output
	// (Remark 4.1; see coin.SharedPipeline). For the full
	// clock-sync stack this cuts the dominant GVSS cost and the coin
	// message complexity to a third.
	LayoutShared Layout = iota
	// LayoutPaper runs one pipeline per consumer — three per node for the
	// full stack — exactly as in the paper's figures.
	LayoutPaper
)

// Layouts lists every coin layout.
var Layouts = []Layout{LayoutShared, LayoutPaper}

// String implements fmt.Stringer.
func (l Layout) String() string {
	switch l {
	case LayoutShared:
		return "shared"
	case LayoutPaper:
		return "paper"
	default:
		return fmt.Sprintf("layout(%d)", uint8(l))
	}
}

// ParseLayout maps the layout names grids and CLI flags accept ("" is
// shared).
func ParseLayout(s string) (Layout, error) {
	switch s {
	case "", "shared":
		return LayoutShared, nil
	case "paper":
		return LayoutPaper, nil
	default:
		return LayoutShared, fmt.Errorf("core: unknown coin layout %q (want shared or paper)", s)
	}
}

// newSupply builds the coin wiring for a stack root: the paper layout's
// per-instance supply, or a shared pipeline (returned separately so the
// root can own — compose, deliver, scramble — it).
func newSupply(env proto.Env, factory coin.Factory, l Layout) (coin.Supply, *coin.SharedPipeline) {
	if l == LayoutPaper {
		return sscoin.PerInstance(factory), nil
	}
	sp := coin.NewSharedPipeline(sscoin.New(env, factory))
	return sp, sp
}

// composeShared appends the shared pipeline's beat traffic to dst,
// wrapped under the reserved root-level envelope tag in envelopes leased
// from p; a no-op when this protocol is not the stack's owner (paper
// layout, or an embedded instance).
func composeShared(p *pool.Node, dst []proto.Send, sp *coin.SharedPipeline, beat uint64) []proto.Send {
	if sp == nil {
		return dst
	}
	return proto.Wrap(p, proto.SharedCoinChild, sp.Compose(beat), dst)
}

// deliverShared is the root-side receive half shared by every stack
// root: split the inbox into the root's own child boxes — widened to
// cover the reserved shared-coin tag when this root owns the pipeline —
// and deliver the shared pipeline BEFORE any consumer, so the bits
// consumers read during their own Deliver are the ones produced this
// beat (the freshness Lemma 8 and Remark 3.1 require).
func deliverShared(p *pool.Node, sp *coin.SharedPipeline, ownKids int, beat uint64, inbox []proto.Recv) [][]proto.Recv {
	kids := ownKids
	if sp != nil {
		kids = int(proto.SharedCoinChild) + 1
	}
	boxes := proto.Split(p, inbox, kids)
	if sp != nil {
		sp.Deliver(beat, boxes[proto.SharedCoinChild])
	}
	return boxes
}
