package core_test

// Differential harness for the message-payload pooling introduced with
// the message-lifetime ownership contract (proto.Message): a pooled
// engine must replay byte-identically to the unpooled reference
// (sim.PoolOff) from the same seed — same per-beat clock traces,
// same phase-3 rand streams, same cumulative message and byte metrics —
// across the full adversary suite, cluster sizes 4/8/16 and scheduler
// worker counts 1 and 8, through a mid-run memory scramble.
//
// The pooled side runs in POISON mode: recycled buffers are scribbled
// with invalid field elements, so any component that illegally retains a
// reference into a beat's payload (the bug class the ownership contract
// exists to prevent) corrupts its own behavior and shows up as a trace
// divergence here. Replayer is the load-bearing suite member: it records
// intercepted traffic across beats and must deep-copy (proto.Clone)
// everything it keeps.

import (
	"fmt"
	"testing"

	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/sim"
)

// poolTrace fingerprints one run: per-beat honest clock values and rand
// bits, plus the engine's cumulative metrics (bytes are content-
// sensitive: a single stale byte in a pooled payload changes them).
type poolTrace struct {
	clocks      [][]uint64
	rands       [][]byte
	honestMsgs  uint64
	faultyMsgs  uint64
	honestBytes uint64
}

func runPoolTrace(n, f int, seed int64, factory coin.Factory, adv advCase, mode sim.PoolMode, workers, beats int) poolTrace {
	var eng *sim.Engine
	cfg := sim.Config{
		N: n, F: f, Seed: seed, Workers: workers,
		CountBytes:    true,
		ScrambleStart: true,
		Pool:          mode,
		NewAdversary:  adv.mk(&eng),
	}
	eng = sim.New(cfg, core.NewClockSyncProtocolLayout(16, factory, core.LayoutShared))
	var tr poolTrace
	record := func(count int) {
		for i := 0; i < count; i++ {
			eng.Step()
			st := sim.ReadClocks(eng)
			tr.clocks = append(tr.clocks, append([]uint64(nil), st.Values...))
			rands := make([]byte, 0, len(st.Values))
			for _, id := range eng.HonestIDs() {
				rands = append(rands, eng.Node(id).(*core.ClockSync).RandBit())
			}
			tr.rands = append(tr.rands, rands)
		}
	}
	record(beats)
	// A transient fault mid-run: scrambled pipelines (corruptFlipper
	// wrappers, garbage tallies) must also behave identically pooled.
	eng.ScrambleHonest()
	record(beats)
	tr.honestMsgs, tr.faultyMsgs, tr.honestBytes = eng.HonestMsgs, eng.FaultyMsgs, eng.HonestBytes
	return tr
}

func diffPoolTraces(t *testing.T, want, got poolTrace, label string) {
	t.Helper()
	if got.honestMsgs != want.honestMsgs || got.faultyMsgs != want.faultyMsgs || got.honestBytes != want.honestBytes {
		t.Fatalf("%s: metrics diverged: honest %d vs %d, faulty %d vs %d, bytes %d vs %d",
			label, got.honestMsgs, want.honestMsgs, got.faultyMsgs, want.faultyMsgs,
			got.honestBytes, want.honestBytes)
	}
	for b := range want.clocks {
		for i := range want.clocks[b] {
			if got.clocks[b][i] != want.clocks[b][i] {
				t.Fatalf("%s: clock trace diverged at beat %d node %d: %d vs %d",
					label, b, i, got.clocks[b][i], want.clocks[b][i])
			}
		}
		for i := range want.rands[b] {
			if got.rands[b][i] != want.rands[b][i] {
				t.Fatalf("%s: rand trace diverged at beat %d honest#%d", label, b, i)
			}
		}
	}
}

// TestPooledVsUnpooledDifferential is the ownership-contract equivalence
// proof: poisoned-pool runs replay the unpooled reference bit for bit.
// The FM coin exercises the real GVSS payload path (the pooled share and
// echo matrices) at every size; beats are kept moderate at n=16 where a
// beat costs milliseconds.
func TestPooledVsUnpooledDifferential(t *testing.T) {
	suite := adversarySuite()
	for _, n := range []int{4, 8, 16} {
		f := (n - 1) / 3
		beats := 48
		if n == 16 {
			beats = 20
		}
		for _, adv := range suite {
			advBeats := beats
			if n == 16 && adv.name == "coinattack" {
				// The coin-directed chain deep-copies n² payloads per
				// recipient per stage; a short window keeps the tier-1
				// budget while still covering the attack at full size.
				advBeats = 8
			}
			t.Run(fmt.Sprintf("n=%d/%s", n, adv.name), func(t *testing.T) {
				beats := advBeats
				ref := runPoolTrace(n, f, 7, coin.FMFactory{}, adv, sim.PoolOff, 1, beats)
				for _, workers := range []int{1, 8} {
					got := runPoolTrace(n, f, 7, coin.FMFactory{}, adv, sim.PoolPoison, workers, beats)
					diffPoolTraces(t, ref, got, fmt.Sprintf("poisoned pool, workers=%d", workers))
				}
			})
		}
	}
}

// TestPooledPaperLayoutDifferential covers the paper layout too: three
// per-consumer pipelines per node triple the concurrently pooled
// sessions, the shape most likely to surface cross-instance aliasing.
func TestPooledPaperLayoutDifferential(t *testing.T) {
	run := func(mode sim.PoolMode) poolTrace {
		var eng *sim.Engine
		adv := adversarySuite()[0] // replayer: the recording adversary
		cfg := sim.Config{
			N: 7, F: 2, Seed: 11, CountBytes: true, ScrambleStart: true,
			Pool: mode, NewAdversary: adv.mk(&eng),
		}
		eng = sim.New(cfg, core.NewClockSyncProtocolLayout(16, coin.FMFactory{}, core.LayoutPaper))
		var tr poolTrace
		for i := 0; i < 60; i++ {
			eng.Step()
			st := sim.ReadClocks(eng)
			tr.clocks = append(tr.clocks, append([]uint64(nil), st.Values...))
			tr.rands = append(tr.rands, nil)
		}
		tr.honestMsgs, tr.faultyMsgs, tr.honestBytes = eng.HonestMsgs, eng.FaultyMsgs, eng.HonestBytes
		return tr
	}
	diffPoolTraces(t, run(sim.PoolOff), run(sim.PoolPoison), "paper layout, poisoned pool")
}
