package sim

import (
	"sync"

	"ssbyzclock/internal/proto"
)

// ClockState is a snapshot of the honest nodes' clocks at the end of a
// beat.
type ClockState struct {
	Beat   uint64
	Values []uint64 // per honest node, in HonestIDs order
	OK     []bool
}

// Synced reports whether all honest clocks are defined and equal, and the
// common value.
func (s ClockState) Synced() (uint64, bool) {
	if len(s.Values) == 0 {
		return 0, false
	}
	v := s.Values[0]
	for i := range s.Values {
		if !s.OK[i] || s.Values[i] != v {
			return 0, false
		}
	}
	return v, true
}

// ReadClocks snapshots the honest nodes' clocks. Nodes whose protocol
// does not implement proto.ClockReader are reported as not-OK.
func ReadClocks(e *Engine) ClockState {
	ids := e.HonestIDs()
	s := ClockState{Beat: e.Beat(), Values: make([]uint64, len(ids)), OK: make([]bool, len(ids))}
	for i, id := range ids {
		s.Values[i], s.OK[i] = readClock(e.Node(id))
	}
	return s
}

// readClock reads p's clock; a protocol without one reads as undefined.
func readClock(p proto.Protocol) (uint64, bool) {
	if cr, ok := p.(proto.ClockReader); ok {
		return cr.Clock()
	}
	return 0, false
}

// ConvergenceResult reports a Judge's verdict over the beats it saw.
type ConvergenceResult struct {
	// Converged is false if the run ended without settling.
	Converged bool
	// ConvergedAt is the first beat (0-based, counted from the start of
	// the measurement) after which the honest clocks were synchronized
	// and remained synchronized, incrementing by one mod k, for the
	// hold window.
	ConvergedAt int
	// Beats is the number of beats judged, up to and including the one
	// that completed the hold window.
	Beats int
	// ClosureViolations counts beats at which a previously synchronized
	// system lost synchronization — zero for a correct protocol once
	// converged (Definition 3.2's closure).
	ClosureViolations int
}

// Judge is the paper's convergence rule, fed one beat at a time. A beat
// is good when the honest clocks are clock-synched (Definition 3.1:
// all defined and equal) and their common value is one more, mod k,
// than the previous beat's; the system has converged once hold
// consecutive beats are good, and ConvergedAt is the first of them. A
// good run broken by a bad beat is one closure violation (Definition
// 3.2). Once converged the result is frozen, but Observe still reports
// whether each later beat is good.
type Judge struct {
	k, prev  uint64
	havePrev bool
	hold     int
	since    int // first beat of the current good run, or -1
	res      ConvergenceResult
}

// NewJudge returns a judge for clock modulus k and a hold window of
// hold beats.
func NewJudge(k uint64, hold int) Judge {
	return Judge{k: k, hold: hold, since: -1, res: ConvergenceResult{ConvergedAt: -1}}
}

// Observe judges the next beat from its common clock value and whether
// the honest clocks were synced (ClockState.Synced's results), and
// reports whether the beat was good.
func (j *Judge) Observe(v uint64, synced bool) bool {
	good := synced && (!j.havePrev || v == (j.prev+1)%j.k)
	j.prev, j.havePrev = v, synced
	if j.res.Converged {
		return good
	}
	b := j.res.Beats
	j.res.Beats++
	switch {
	case !good:
		if j.since >= 0 {
			j.res.ClosureViolations++
		}
		j.since = -1
	case j.since < 0:
		j.since = b
	}
	if good && b-j.since+1 >= j.hold {
		j.res.Converged, j.res.ConvergedAt = true, j.since
	}
	return good
}

// Result returns the verdict so far.
func (j *Judge) Result() ConvergenceResult { return j.res }

// MeasureConvergence steps the engine until the judge declares it
// converged, or for maxBeats beats.
func MeasureConvergence(e *Engine, k uint64, maxBeats, holdBeats int) ConvergenceResult {
	j := NewJudge(k, holdBeats)
	for b := 0; b < maxBeats && !j.res.Converged; b++ {
		e.Step()
		j.Observe(ReadClocks(e).Synced())
	}
	return j.Result()
}

// agreementWindow is how many beats an Agreement holds: a node may run
// that far ahead of the slowest honest node before the laggard's
// missing beats are judged without it.
const agreementWindow = 64

// Agreement feeds a Judge from a networked cluster's per-node beat
// reports, which arrive concurrently and out of beat order. Beat b is
// judged once every honest node has reported a beat >= b; a node that
// skipped b (a catch-up jump) leaves b unsynced. It holds only the last
// agreementWindow beats, so its memory does not grow with the run: a
// report that far ahead of the oldest pending beat judges that beat
// with whatever it has. Safe for concurrent use.
type Agreement struct {
	mu    sync.Mutex
	judge Judge
	pos   map[int]int // honest id -> position in a beat's ClockState
	next  uint64      // oldest beat not yet judged
	done  []uint64    // per position: one past the last beat reported
	ring  []ClockState
}

// NewAgreement judges the honest ids' clocks with modulus k and a hold
// window of hold beats.
func NewAgreement(honest []int, k uint64, hold int) *Agreement {
	a := &Agreement{judge: NewJudge(k, hold), pos: make(map[int]int, len(honest)),
		done: make([]uint64, len(honest)), ring: make([]ClockState, agreementWindow)}
	for i, id := range honest {
		a.pos[id] = i
	}
	for i := range a.ring {
		a.ring[i] = ClockState{Values: make([]uint64, len(honest)), OK: make([]bool, len(honest))}
	}
	return a
}

// Report records node id's protocol state after beat; ids outside the
// honest set are ignored.
func (a *Agreement) Report(id int, beat uint64, p proto.Protocol) {
	a.mu.Lock()
	defer a.mu.Unlock()
	i, ok := a.pos[id]
	if !ok || beat < a.next {
		return
	}
	for beat >= a.next+agreementWindow {
		a.judgeNext()
	}
	s := &a.ring[beat%agreementWindow]
	s.Values[i], s.OK[i] = readClock(p)
	a.done[i] = max(a.done[i], beat+1)
	low := a.done[0]
	for _, d := range a.done {
		low = min(low, d)
	}
	for a.next < low {
		a.judgeNext()
	}
}

// judgeNext judges the oldest pending beat and clears its slot.
func (a *Agreement) judgeNext() {
	s := &a.ring[a.next%agreementWindow]
	a.judge.Observe(s.Synced())
	clear(s.OK)
	a.next++
}

// Result returns the verdict over the beats judged so far.
func (a *Agreement) Result() ConvergenceResult {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.judge.Result()
}

// BitState snapshots the honest nodes' coin bits at the end of a beat.
type BitState struct {
	Bits []byte
}

// Agreed reports whether all honest bits are equal, and the common bit.
func (s BitState) Agreed() (byte, bool) {
	if len(s.Bits) == 0 {
		return 0, false
	}
	b := s.Bits[0]
	for _, v := range s.Bits {
		if v != b {
			return 0, false
		}
	}
	return b, true
}

// ReadBits snapshots the honest nodes' coin outputs.
func ReadBits(e *Engine) BitState {
	ids := e.HonestIDs()
	s := BitState{Bits: make([]byte, len(ids))}
	for i, id := range ids {
		if br, ok := e.Node(id).(proto.BitReader); ok {
			s.Bits[i] = br.Bit()
		}
	}
	return s
}
