package core_test

// Differential harness for the wide evaluation kernels and fused sweep
// primitives: a run on the installed kernel set (AVX2 where the CPU has
// it, the portable Go kernel otherwise) must replay byte-identically to
// the same run on the scalar references (field.UseScalarRefs). All
// variants compute exact canonical values, so the only acceptable
// divergence is none — any mismatch in clock traces, rand streams, or
// cumulative message/byte metrics means a kernel computed a different
// field element somewhere and the protocol trajectory forked.
//
// The suite crosses the adversary suite with n ∈ {4, 8, 16, 32} (the
// full kernel dispatch ladder: tails only, one 4-lane block, two 8-point
// blocks, deep blocks) under the FM coin, whose GVSS matrices are what
// the fused DeliverEcho/DeliverVote/DeliverRecover sweeps chew on.

import (
	"fmt"
	"testing"

	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/field"
	"ssbyzclock/internal/sim"
)

// withScalarRefs runs fn with the scalar reference eval kernel and
// scalar sweep implementations installed, restoring the previous
// configuration afterwards.
func withScalarRefs(t *testing.T, fn func()) {
	t.Helper()
	defer field.UseScalarRefs(field.UseScalarRefs(true))
	fn()
}

// TestKernelVsScalarRefDifferential is the wide-kernel equivalence
// proof: installed-kernel runs replay the scalar reference bit for bit
// across the adversary suite, with a mid-run scramble, at worker counts
// 1 and 8. Beats shrink as n grows (a reference-kernel beat at n=32
// costs tens of milliseconds) but every size still crosses a scramble
// and every suite adversary.
func TestKernelVsScalarRefDifferential(t *testing.T) {
	suite := adversarySuite()
	beatsFor := map[int]int{4: 24, 8: 12, 16: 5, 32: 2}
	for _, n := range []int{4, 8, 16, 32} {
		f := (n - 1) / 3
		beats := beatsFor[n]
		for _, adv := range suite {
			advBeats := beats
			if n == 32 && adv.name == "coinattack" {
				// The corruptor chain forces the error-correcting decode
				// fallback in every instance; at n=32 one beat of that costs
				// seconds, so a single beat per half keeps the tier-1 budget
				// while still crossing the scramble at full size.
				advBeats = 1
			}
			t.Run(fmt.Sprintf("n=%d/%s", n, adv.name), func(t *testing.T) {
				beats := advBeats
				var ref poolTrace
				withScalarRefs(t, func() {
					ref = runPoolTrace(n, f, 7, coin.FMFactory{}, adv, sim.PoolOn, 1, beats)
				})
				for _, workers := range []int{1, 8} {
					got := runPoolTrace(n, f, 7, coin.FMFactory{}, adv, sim.PoolOn, workers, beats)
					diffPoolTraces(t, ref, got, fmt.Sprintf("wide kernel, workers=%d", workers))
				}
			})
		}
	}
}
