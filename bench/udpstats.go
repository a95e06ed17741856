package main

import "ssbyzclock/internal/noderuntime"

// finalWindowBeats is how close to the end of the run the last
// holdBeats-long agreement streak must end for the run to count as
// live. Under 5% loss a node regularly skips a beat and the cluster
// spends a few beats re-agreeing, so "agreed on the very last beats"
// would fail healthy runs by chance; "agreed recently" does not.
const finalWindowBeats = 256

// beatAnalysis is what the honest nodes' beat logs say about one timed
// window of a networked run.
type beatAnalysis struct {
	// intervalMs pools, over honest nodes, the time between consecutive
	// delivered beats — the networked "beat time".
	intervalMs []float64
	nodeBeats  int // delivered beats, summed over honest nodes
	nodes      int // honest nodes per cluster
	timeouts   int // intervals >= BeatTimeout
	retryBeats int // intervals in [RetryMin/2, BeatTimeout)

	// The agreement table covers the beat numbers every honest node's
	// window spans; a beat a node skipped (catch-up jump) counts as not
	// agreed.
	tableBeats   int
	agreed, seen int       // agreed beats / beats, from the first agreed beat on
	stableAt     int       // first beat (from the table's start) of the first streak, -1 if none
	desyncRuns   []float64 // lengths of not-agreed runs after the first agreed beat
	// noFinalStreak counts clusters with no streak ending within the
	// last finalWindowBeats beats (0 or 1 until merged).
	noFinalStreak int
	// maxStreakGap is the longest stretch of beats without a completed
	// streak: how much margin finalWindowBeats leaves.
	maxStreakGap int
}

// clusterBeats is the beats delivered by the average honest node,
// summed over the clusters merged in.
func (a *beatAnalysis) clusterBeats() float64 {
	return float64(a.nodeBeats) / float64(max(a.nodes, 1))
}

// merge pools another cluster's analysis into a.
func (a *beatAnalysis) merge(b beatAnalysis) {
	a.intervalMs = append(a.intervalMs, b.intervalMs...)
	a.nodeBeats += b.nodeBeats
	a.timeouts += b.timeouts
	a.retryBeats += b.retryBeats
	a.tableBeats += b.tableBeats
	a.agreed += b.agreed
	a.seen += b.seen
	a.desyncRuns = append(a.desyncRuns, b.desyncRuns...)
	a.noFinalStreak += b.noFinalStreak
	a.maxStreakGap = max(a.maxStreakGap, b.maxStreakGap)
}

// analyzeBeats reads the window [from, to] (ns since the cluster's
// epoch) out of per-node beat logs.
func analyzeBeats(logs [][]beatRec, from, to int64, tm noderuntime.Timing) beatAnalysis {
	a := beatAnalysis{stableAt: -1, noFinalStreak: 1, nodes: len(logs)}
	win := make([][]beatRec, len(logs))
	var lo, hi uint64
	for i, recs := range logs {
		s, e := 0, len(recs)
		for s < e && recs[s].t < from {
			s++
		}
		for e > s && recs[e-1].t > to {
			e--
		}
		w := recs[s:e]
		win[i] = w
		a.nodeBeats += len(w)
		for k := 1; k < len(w); k++ {
			d := w[k].t - w[k-1].t
			a.intervalMs = append(a.intervalMs, float64(d)/1e6)
			switch {
			case d >= int64(tm.BeatTimeout):
				a.timeouts++
			case d >= int64(tm.RetryMin/2):
				a.retryBeats++
			}
		}
		if len(w) == 0 {
			return a
		}
		if i == 0 || w[0].beat > lo {
			lo = w[0].beat
		}
		if i == 0 || w[len(w)-1].beat < hi {
			hi = w[len(w)-1].beat
		}
	}
	if len(logs) == 0 || hi < lo {
		return a
	}
	a.tableBeats = int(hi-lo) + 1
	// vals[node][b-lo] = clock+1, or 0 for undefined / skipped.
	vals := make([][]uint64, len(win))
	for i, w := range win {
		vals[i] = make([]uint64, a.tableBeats)
		for _, r := range w {
			if r.beat >= lo && r.beat <= hi && r.ok {
				vals[i][r.beat-lo] = r.clock + 1
			}
		}
	}
	st := newStreak()
	lastStreakEnd, run := -1, 0
	for b := 0; b < a.tableBeats; b++ {
		v, ok := vals[0][b], vals[0][b] != 0
		for i := 1; i < len(vals) && ok; i++ {
			ok = vals[i][b] == v
		}
		st.observe(b, v-1, ok)
		if st.run >= holdBeats {
			lastStreakEnd = b
		}
		a.maxStreakGap = max(a.maxStreakGap, b-lastStreakEnd)
		if st.firstAgreed >= 0 {
			if !ok {
				run++
			} else if run > 0 {
				a.desyncRuns = append(a.desyncRuns, float64(run))
				run = 0
			}
		}
	}
	a.stableAt = st.stableAt
	a.agreed, a.seen = st.agreed, st.seen
	if lastStreakEnd >= 0 && lastStreakEnd >= a.tableBeats-finalWindowBeats {
		a.noFinalStreak = 0
	}
	return a
}
