package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded
// by the benchmark's own shims, around calls into the program's public
// functions; the program itself carries no spans yet.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 = root
	Trace  int64  `json:"trace"`  // spans of one episode / node share it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// maxStoredSpans bounds the in-memory span log (and the JSONL file): a
// udp-n4 run produces over half a million spans, of which the first
// 131,072 already cover thousands of beats per node. Aggregates (count,
// total per name) cover every span regardless.
const maxStoredSpans = 1 << 17

// recorder keeps spans in memory until the run ends. A nil *recorder
// is the untraced run: every method is a no-op, so workload code calls
// it unconditionally.
type recorder struct {
	epoch time.Time

	mu      sync.Mutex
	nextID  int64
	spans   []span
	dropped int64
	agg     map[string]*spanAgg
}

type spanAgg struct {
	Count int64
	Total int64 // ns
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), agg: make(map[string]*spanAgg)}
}

// now is the recorder's clock: ns since its epoch (0 when untraced).
func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// newID reserves a span id, so a parent's id can be handed to children
// before the parent's end is known.
func (r *recorder) newID() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	r.nextID++
	id := r.nextID
	r.mu.Unlock()
	return id
}

// add records a finished span under a fresh id and returns the id.
func (r *recorder) add(name string, parent, trace, start, end int64) int64 {
	if r == nil {
		return 0
	}
	return r.addWithID(r.newID(), name, parent, trace, start, end)
}

// addWithID records a finished span under an id from newID.
func (r *recorder) addWithID(id int64, name string, parent, trace, start, end int64) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	a := r.agg[name]
	if a == nil {
		a = &spanAgg{}
		r.agg[name] = a
	}
	a.Count++
	a.Total += end - start
	if len(r.spans) < maxStoredSpans {
		r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start, End: end})
	} else {
		r.dropped++
	}
	r.mu.Unlock()
	return id
}

// total returns the summed duration (ns) and count of every span
// recorded under name, including those beyond the storage cap.
func (r *recorder) total(name string) (ns, count int64) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if a := r.agg[name]; a != nil {
		return a.Total, a.Count
	}
	return 0, 0
}

// selfTimes computes each span's self time: its duration minus the
// part of its interval its direct children cover (overlapping children
// — parallel work — are merged first, so covered time is never counted
// twice). Children are clipped to the parent's interval. The result is
// keyed by span id.
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals
// inside parent.
func covered(parent span, children []span) int64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	// Insertion sort by start: children per parent are few.
	for i := 1; i < len(iv); i++ {
		for j := i; j > 0 && iv[j][0] < iv[j-1][0]; j-- {
			iv[j], iv[j-1] = iv[j-1], iv[j]
		}
	}
	var sum, end int64
	end = -1 << 62
	for _, x := range iv {
		if x[0] > end {
			sum += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			sum += x[1] - end
			end = x[1]
		}
	}
	return sum
}

// selfByName sums self time (ns) per span name over the stored spans.
func (r *recorder) selfByName() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	spans := r.spans
	r.mu.Unlock()
	self := selfTimes(spans)
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// write dumps the stored spans as JSON lines to dir/trace-<workload>.jsonl.
func (r *recorder) write(dir, workload string) (string, error) {
	if r == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	spans := r.spans
	r.mu.Unlock()
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", fmt.Errorf("trace write: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("trace flush: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace close: %w", err)
	}
	return path, nil
}
