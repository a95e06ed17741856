// Package obs is the observability subsystem: a lock-free metrics
// registry whose handles cost nothing when unattached, a snapshot API,
// and a Prometheus text-format exporter (expfmt.go, http.go) so the
// daemons (cmd/clocknode, cmd/soak) are scrapeable
// services instead of processes that print counters at exit.
//
// Two properties are load-bearing:
//
//   - Zero behavioral footprint. Metrics never feed back into protocol
//     behavior, and every handle type (Counter, Gauge, HistShard) is
//     nil-receiver-safe: a nil *Registry hands out nil handles, and a
//     nil handle's methods are single-branch no-ops. Instrumented code
//     therefore calls its handles unconditionally, and a run with a nil
//     registry is byte-identical to an instrumented one — clocks, rand
//     streams, message and byte counters — which the differential
//     harness in internal/core pins across the adversary suite.
//   - Lock-free hot paths. Counters and gauges are single atomics.
//     Histograms are sharded: each worker or endpoint owns a HistShard
//     it updates with plain atomic adds (no CAS loops, no locks), and
//     shards are merged into one exact nearest-rank stats.Histogram
//     only at snapshot (scrape) time. A merged histogram equals a
//     single-stream stats.Histogram fed the same observations in any
//     interleaving — counts are order-free multisets — which the merge
//     tests pin.
//
// Registration is idempotent: asking for the same (name, labels) series
// again returns the existing handle, so independent components — the
// engine and a tenant engine sharing a registry, a restarted cluster
// node — accumulate into one series instead of colliding.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"ssbyzclock/internal/stats"
)

// Label is one Prometheus label pair.
type Label struct {
	Key, Value string
}

// Counter is a monotonically increasing series. The zero value is ready
// to use; a nil *Counter is a no-op (the detached-registry path).
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 on a nil handle).
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a series that can go up and down. The zero value is ready to
// use; a nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(x int64) {
	if g != nil {
		g.v.Store(x)
	}
}

// Add moves the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Load returns the current value (0 on a nil handle).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram accumulates a bounded non-negative integer series — beat
// counts, wait milliseconds — exactly (one bin per value, the
// stats.Histogram representation), sharded so concurrent writers never
// contend: each worker or endpoint takes its own HistShard via Shard
// and observes into it with plain atomic adds. Merge combines the
// shards into a single stats.Histogram at snapshot time.
type Histogram struct {
	bound int

	mu     sync.Mutex // guards shards growth only; observation is lock-free
	shards []*HistShard
}

// HistShard is one writer's slice of a Histogram. A nil *HistShard is a
// no-op, so instrumented code observes unconditionally.
type HistShard struct {
	counts []uint64 // accessed with atomic adds/loads
}

// Shard registers and returns a new shard for one writer. Returns nil
// on a nil histogram (detached registry).
func (h *Histogram) Shard() *HistShard {
	if h == nil {
		return nil
	}
	s := &HistShard{counts: make([]uint64, h.bound+1)}
	h.mu.Lock()
	h.shards = append(h.shards, s)
	h.mu.Unlock()
	return s
}

// Bound returns the histogram's value bound (values clamp into
// [0, Bound]).
func (h *Histogram) Bound() int {
	if h == nil {
		return 0
	}
	return h.bound
}

// Observe records one value, clamped into [0, bound] exactly as
// stats.Histogram.Add clamps.
func (s *HistShard) Observe(x int) {
	if s == nil {
		return
	}
	if x < 0 {
		x = 0
	}
	if x >= len(s.counts) {
		x = len(s.counts) - 1
	}
	atomic.AddUint64(&s.counts[x], 1)
}

// Merge combines every shard into one exact nearest-rank
// stats.Histogram. Writers may still be observing: each bin is read
// atomically, so the merge is a consistent multiset of some prefix of
// each shard's observations. Returns an empty histogram on a nil
// handle.
func (h *Histogram) Merge() *stats.Histogram {
	if h == nil {
		return stats.NewHistogram(0)
	}
	m := stats.NewHistogram(h.bound)
	h.mu.Lock()
	shards := append([]*HistShard(nil), h.shards...)
	h.mu.Unlock()
	for _, s := range shards {
		for v := range s.counts {
			if c := atomic.LoadUint64(&s.counts[v]); c > 0 {
				m.AddCount(v, c)
			}
		}
	}
	return m
}

// Kind is a metric's Prometheus type.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
	// KindFunc is a value computed at snapshot time from a callback —
	// the bridge for components that keep their own atomic counters
	// (transport drop counts, TCP reconnects). Exported with the
	// Prometheus type given at registration.
	KindFunc
)

// metric is one registered series.
type metric struct {
	name, help string
	kind       Kind
	expKind    Kind // Prometheus type for KindFunc (counter or gauge)
	labels     []Label

	c *Counter
	g *Gauge
	h *Histogram
	f func() float64
}

// Registry holds named metric series. A nil *Registry is valid and
// hands out nil handles everywhere — the zero-cost detached mode.
// Create with NewRegistry.
type Registry struct {
	mu    sync.Mutex
	byKey map[string]*metric
	order []*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*metric)}
}

// seriesKey is the identity of one series: name plus its sorted labels.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0)
		b.WriteString(l.Key)
		b.WriteByte(0)
		b.WriteString(l.Value)
	}
	return b.String()
}

// sortedLabels returns a sorted copy so label order never splits a
// series.
func sortedLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

// register finds or creates the series. Re-registering an existing
// (name, labels) with a different kind is a programming error.
func (r *Registry) register(name, help string, kind Kind, labels []Label) *metric {
	ls := sortedLabels(labels)
	key := seriesKey(name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: series %q re-registered as kind %d (was %d)", name, kind, m.kind))
		}
		return m
	}
	m := &metric{name: name, help: help, kind: kind, labels: ls}
	r.byKey[key] = m
	r.order = append(r.order, m)
	return m
}

// Counter returns the counter series (name, labels), creating it on
// first use. Nil registry returns a nil (no-op) handle.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	m := r.register(name, help, KindCounter, labels)
	if m.c == nil {
		m.c = &Counter{}
	}
	return m.c
}

// Gauge returns the gauge series (name, labels), creating it on first
// use. Nil registry returns a nil (no-op) handle.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	m := r.register(name, help, KindGauge, labels)
	if m.g == nil {
		m.g = &Gauge{}
	}
	return m.g
}

// Histogram returns the histogram series (name, labels) for values in
// [0, bound], creating it on first use (the bound of the first
// registration wins). Nil registry returns a nil handle whose Shard()
// is nil — the whole observation path no-ops.
func (r *Registry) Histogram(name, help string, bound int, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if bound < 0 {
		bound = 0
	}
	m := r.register(name, help, KindHistogram, labels)
	if m.h == nil {
		m.h = &Histogram{bound: bound}
	}
	return m.h
}

// Func registers a snapshot-time callback series exported with the
// given Prometheus type (KindCounter or KindGauge). The last
// registration's callback wins, so a restarted component re-registers
// over its dead predecessor's closure. No-op on a nil registry.
func (r *Registry) Func(name, help string, expKind Kind, f func() float64, labels ...Label) {
	if r == nil || f == nil {
		return
	}
	m := r.register(name, help, KindFunc, labels)
	m.expKind = expKind
	m.f = f
}

// Series is one exported series in a Snapshot.
type Series struct {
	Name   string
	Help   string
	Kind   Kind // KindFunc is resolved to its export kind
	Labels []Label
	// Value holds counter, gauge and func readings.
	Value float64
	// Hist holds the merged histogram for KindHistogram series.
	Hist *stats.Histogram
}

// Snapshot reads every series. Safe to call while writers run (atomic
// reads); series are ordered by name, then label signature, so output
// is deterministic for a fixed set of readings. Nil registries snapshot
// empty.
func (r *Registry) Snapshot() []Series {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ms := append([]*metric(nil), r.order...)
	r.mu.Unlock()
	out := make([]Series, 0, len(ms))
	for _, m := range ms {
		s := Series{Name: m.name, Help: m.help, Kind: m.kind, Labels: m.labels}
		switch m.kind {
		case KindCounter:
			s.Value = float64(m.c.Load())
		case KindGauge:
			s.Value = float64(m.g.Load())
		case KindHistogram:
			s.Hist = m.h.Merge()
		case KindFunc:
			s.Kind = m.expKind
			s.Value = m.f()
		}
		out = append(out, s)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return seriesKey("", out[i].Labels) < seriesKey("", out[j].Labels)
	})
	return out
}
