package sim_test

import (
	"sync"
	"testing"

	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/sim"
)

// bot marks a beat whose honest clocks are not synced (⊥ at some node,
// or a disagreement) in a judge test trajectory.
const bot = -1

func observeAll(j *sim.Judge, beats []int) []bool {
	var good []bool
	for _, v := range beats {
		good = append(good, j.Observe(uint64(max(v, 0)), v != bot))
	}
	return good
}

// TestJudge pins Definitions 3.1/3.2 as the judge reads them: a beat is
// good when synced and one more (mod k) than the previous beat, the run
// converges at the first beat of hold consecutive good beats, and each
// broken good run is one closure violation.
func TestJudge(t *testing.T) {
	for _, tc := range []struct {
		name     string
		hold     int
		beats    []int
		want     sim.ConvergenceResult
		wantGood []bool
		k        uint64
	}{
		{name: "converged from beat 0", hold: 3, beats: []int{5, 6, 7},
			want: sim.ConvergenceResult{Converged: true, ConvergedAt: 0, Beats: 3}},
		{name: "increments wrap mod k", hold: 3, k: 4, beats: []int{2, 3, 0},
			want: sim.ConvergenceResult{Converged: true, ConvergedAt: 0, Beats: 3}},
		{name: "bottom breaks a streak", hold: 3, beats: []int{0, 1, bot, 9, 10, 11},
			want:     sim.ConvergenceResult{Converged: true, ConvergedAt: 3, Beats: 6, ClosureViolations: 1},
			wantGood: []bool{true, true, false, true, true, true}},
		{name: "non-increment breaks a streak", hold: 3, beats: []int{0, 1, 1, 2, 3, 4},
			want:     sim.ConvergenceResult{Converged: true, ConvergedAt: 3, Beats: 6, ClosureViolations: 1},
			wantGood: []bool{true, true, false, true, true, true}},
		{name: "equal clocks that never increment", hold: 3, beats: []int{4, 4, 4, 4, 4, 4},
			want:     sim.ConvergenceResult{ConvergedAt: -1, Beats: 6, ClosureViolations: 1},
			wantGood: []bool{true, false, false, false, false, false}},
		{name: "one beat short of hold", hold: 4, beats: []int{bot, 0, 1, 2},
			want: sim.ConvergenceResult{ConvergedAt: -1, Beats: 4}},
		{name: "exactly hold beats", hold: 4, beats: []int{bot, 0, 1, 2, 3},
			want: sim.ConvergenceResult{Converged: true, ConvergedAt: 1, Beats: 5}},
		{name: "one violation per break, not per bad beat", hold: 3, beats: []int{0, 1, bot, bot, bot, 7, bot, 2, 3, 4},
			want: sim.ConvergenceResult{Converged: true, ConvergedAt: 7, Beats: 10, ClosureViolations: 2}},
		{name: "frozen once converged", hold: 2, beats: []int{0, 1, bot, 7, 7},
			want:     sim.ConvergenceResult{Converged: true, ConvergedAt: 0, Beats: 2},
			wantGood: []bool{true, true, false, true, false}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := tc.k
			if k == 0 {
				k = 16
			}
			j := sim.NewJudge(k, tc.hold)
			good := observeAll(&j, tc.beats)
			if got := j.Result(); got != tc.want {
				t.Fatalf("result %+v, want %+v", got, tc.want)
			}
			for i, g := range tc.wantGood {
				if good[i] != g {
					t.Fatalf("beat %d good = %v, want %v (all: %v)", i, good[i], g, good)
				}
			}
		})
	}
}

// clockAt is a protocol stand-in whose clock reads a fixed value.
type clockAt struct {
	proto.Protocol
	v  uint64
	ok bool
}

func (c clockAt) Clock() (uint64, bool) { return c.v, c.ok }
func (c clockAt) Modulus() uint64       { return 16 }

// TestAgreementMatchesJudge: reports arriving out of beat order across
// nodes, and from nodes outside the honest set, judge exactly as the
// in-order trajectory does.
func TestAgreementMatchesJudge(t *testing.T) {
	honest := []int{0, 2, 3}
	clocks := func(b uint64) (uint64, bool) {
		switch {
		case b < 5:
			return b * 3, b%2 == 0
		case b == 20:
			return 99, true
		default:
			return b, true
		}
	}
	a := sim.NewAgreement(honest, 16, 16)
	// Node 3 runs two beats ahead of node 0 and node 2 one beat behind
	// it; node 1 is not honest and reports garbage.
	const beats = 40
	for b := uint64(0); b < beats+3; b++ {
		for _, r := range []struct {
			id   int
			beat uint64
		}{{3, b}, {1, b}, {0, b - 2}, {2, b - 3}} {
			if r.beat > b || r.beat >= beats {
				continue
			}
			v, ok := clocks(r.beat)
			if r.id == 1 {
				v, ok = 77, true
			}
			a.Report(r.id, r.beat, clockAt{v: v % 16, ok: ok})
		}
	}
	want := sim.NewJudge(16, 16)
	for b := uint64(0); b < beats && !want.Result().Converged; b++ {
		v, ok := clocks(b)
		want.Observe(v%16, ok)
	}
	if got := a.Result(); got != want.Result() || got.ConvergedAt != 22 || got.ClosureViolations != 4 {
		t.Fatalf("agreement %+v, judge over the trajectory %+v", got, want.Result())
	}
}

// TestAgreementSkipsAndLaggards: a beat a node skipped is unsynced once
// every node has passed it; a node more than the window behind has its
// missing beats judged without it, and its late reports are ignored.
func TestAgreementSkipsAndLaggards(t *testing.T) {
	a := sim.NewAgreement([]int{0, 1}, 1<<20, 3)
	for b := uint64(0); b < 6; b++ {
		a.Report(0, b, clockAt{v: b, ok: true})
		if b != 2 { // node 1 jumps over beat 2
			a.Report(1, b, clockAt{v: b, ok: true})
		}
	}
	if got, want := a.Result(), (sim.ConvergenceResult{Converged: true, ConvergedAt: 3, Beats: 6, ClosureViolations: 1}); got != want {
		t.Fatalf("skip: %+v, want %+v", got, want)
	}

	a = sim.NewAgreement([]int{0, 1}, 1<<20, 1000)
	for b := uint64(0); b < 200; b++ {
		a.Report(0, b, clockAt{v: b, ok: true})
	}
	// Node 1 never reported: everything but the last window is judged,
	// all unsynced.
	r := a.Result()
	if r.Beats == 0 || r.Beats >= 200 || r.Converged || r.ClosureViolations != 0 {
		t.Fatalf("laggard: %+v", r)
	}
	a.Report(1, 0, clockAt{v: 0, ok: true}) // long since judged
	if got := a.Result(); got != r {
		t.Fatalf("late report changed the verdict: %+v -> %+v", r, got)
	}
}

// TestAgreementConcurrentReports: nodes reporting from their own
// goroutines, each in beat order but unordered across nodes (the OnBeat
// contract), judge as the in-order trajectory does while no node runs a
// whole window ahead.
func TestAgreementConcurrentReports(t *testing.T) {
	honest := []int{0, 1, 2, 3}
	a := sim.NewAgreement(honest, 16, 8)
	var wg sync.WaitGroup
	for _, id := range honest {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for b := uint64(0); b < 40; b++ {
				a.Report(id, b, clockAt{v: (b + 3) % 16, ok: b >= 10 || id == 2})
			}
		}(id)
	}
	wg.Wait()
	want := sim.ConvergenceResult{Converged: true, ConvergedAt: 10, Beats: 18}
	if got := a.Result(); got != want {
		t.Fatalf("agreement %+v, want %+v", got, want)
	}
}
