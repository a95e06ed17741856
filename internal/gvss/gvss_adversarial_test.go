package gvss

// Deeper adversarial tests of the GVSS grade and recovery semantics,
// beyond the basic suite in gvss_test.go.

import (
	"math/rand"
	"testing"

	"ssbyzclock/internal/field"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/shamir"
)

// TestEquivocatingDealerSplitDealing: a Byzantine dealer hands the two
// halves of the cluster rows from two *different* valid bivariate
// polynomials. Neither half can reach the n-f echo-consistency quorum, so
// the dealing must not reach GradeHigh anywhere — and whatever grade it
// gets, the high=>low-everywhere invariant must hold.
func TestEquivocatingDealerSplitDealing(t *testing.T) {
	n, f := 7, 2
	h := newHarness(t, 31, n, f, 6)
	rng := rand.New(rand.NewSource(77))
	// Prepare the equivocating dealer's two dealings.
	altA := make([]*shamir.Bivariate, n)
	altB := make([]*shamir.Bivariate, n)
	for tgt := 0; tgt < n; tgt++ {
		altA[tgt] = shamir.NewBivariate(rng, f, field.Reduce(rng.Uint64()))
		altB[tgt] = shamir.NewBivariate(rng, f, field.Reduce(rng.Uint64()))
	}
	h.run(func(round, from, to int, m proto.Message) proto.Message {
		if round != 0 {
			return m
		}
		src := altA
		if to >= n/2 {
			src = altB
		}
		rows := make([]field.Poly, n)
		for tgt := 0; tgt < n; tgt++ {
			rows[tgt] = src[tgt].Row(field.Elem(to + 1))
		}
		return ShareMsg{Rows: rows}
	})
	for tgt := 0; tgt < n; tgt++ {
		for _, u := range h.honest() {
			if g := h.ins[u].Grade(6, tgt); g == GradeHigh {
				t.Fatalf("split dealing reached grade high at node %d (target %d)", u, tgt)
			}
		}
	}
	// Honest dealings unaffected.
	for _, d := range h.honest() {
		for tgt := 0; tgt < n; tgt++ {
			for _, u := range h.honest() {
				if g := h.ins[u].Grade(d, tgt); g != GradeHigh {
					t.Fatalf("honest dealer %d lost grade high at node %d", d, u)
				}
			}
		}
	}
}

// TestGradeHighImpliesConsistentRecovery: across a battery of attack
// mixes, whenever two honest nodes both assign GradeHigh to a dealing,
// they must recover the same value — the property the coin's accept sets
// rely on (gvss.go's package doc, substitution note).
func TestGradeHighImpliesConsistentRecovery(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		h := newHarness(t, int64(500+trial), 7, 2, 0, 6)
		grng := rand.New(rand.NewSource(int64(900 + trial)))
		h.run(func(round, from, to int, m proto.Message) proto.Message {
			switch grng.Intn(3) {
			case 0:
				return garbage(grng, m, 7, 2)
			case 1:
				return nil
			default:
				return m
			}
		})
		for d := 0; d < h.n; d++ {
			for tgt := 0; tgt < h.n; tgt++ {
				var val field.Elem
				have := false
				for _, u := range h.honest() {
					if h.ins[u].Grade(d, tgt) != GradeHigh {
						continue
					}
					v, ok := h.ins[u].Recovered(d, tgt)
					if !ok {
						t.Fatalf("trial %d: grade high but unrecoverable at node %d (dealing %d,%d)",
							trial, u, d, tgt)
					}
					if have && v != val {
						t.Fatalf("trial %d: grade-high recovery split on dealing (%d,%d)", trial, d, tgt)
					}
					val, have = v, true
				}
			}
		}
	}
}

// TestWithholdingBelowReconstructionThreshold: if fewer than 2f+1 nodes
// publish recover shares for a dealing, recovery must fail closed rather
// than produce a garbage value.
func TestWithholdingBelowReconstructionThreshold(t *testing.T) {
	n, f := 7, 2
	h := newHarness(t, 41, n, f, 5, 6)
	h.run(func(round, from, to int, m proto.Message) proto.Message {
		if round != 3 {
			return m
		}
		// Byzantine nodes suppress their recover shares for dealer 0's
		// dealings and additionally the tamper drops honest node 0's...
		// (we can only control Byzantine sends here, so just drop theirs;
		// the threshold test proper is below via direct delivery).
		return nil
	})
	// With 5 honest shares (>= 2f+1 = 5) recovery still succeeds:
	for tgt := 0; tgt < n; tgt++ {
		for _, u := range h.honest() {
			if _, ok := h.ins[u].Recovered(0, tgt); !ok {
				t.Fatalf("recovery failed with exactly 2f+1 shares at node %d", u)
			}
		}
	}

	// Direct threshold check: deliver only 2f shares to a fresh instance.
	env := proto.Env{N: n, F: f, ID: 0, Rng: rand.New(rand.NewSource(51))}
	ins := New(env, env.Rng)
	shares := make([][]field.Elem, n)
	has := make([][]bool, n)
	for d := 0; d < n; d++ {
		shares[d] = make([]field.Elem, n)
		has[d] = make([]bool, n)
		for tgt := 0; tgt < n; tgt++ {
			has[d][tgt] = true
		}
	}
	var inbox []proto.Recv
	for w := 0; w < 2*f; w++ { // one short of the 2f+1 minimum
		inbox = append(inbox, proto.Recv{From: w, Msg: RecoverMsg{Shares: shares, HasRow: has}})
	}
	ins.DeliverRecover(inbox)
	if _, ok := ins.Recovered(1, 1); ok {
		t.Fatal("recovery succeeded below the 2f+1 share threshold")
	}
}

// TestDealerTargetSecretsIndependent: the vector dealing must not leak
// one target's secret into another's reconstruction.
func TestDealerTargetSecretsIndependent(t *testing.T) {
	h := newHarness(t, 61, 4, 1)
	h.run(nil)
	d := 2
	for t1 := 0; t1 < h.n; t1++ {
		for t2 := t1 + 1; t2 < h.n; t2++ {
			v1, ok1 := h.ins[0].Recovered(d, t1)
			v2, ok2 := h.ins[0].Recovered(d, t2)
			if !ok1 || !ok2 {
				t.Fatal("recovery failed in clean run")
			}
			if v1 != h.ins[d].DealtSecret(t1) || v2 != h.ins[d].DealtSecret(t2) {
				t.Fatal("cross-target contamination in recovery")
			}
		}
	}
}
