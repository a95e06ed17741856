package faultnet

import (
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ssbyzclock/internal/net"
	"ssbyzclock/internal/obs"
	"ssbyzclock/internal/wire"
)

// WrapConfig tunes a faulted endpoint.
type WrapConfig struct {
	// FaultMarkers subjects the beat barrier to the schedule too. A beat
	// frame's arrival is its sender's beat marker, so a Drop verdict can
	// mean two things: with FaultMarkers the whole frame is lost, without
	// it the frame is forwarded stripped of its messages. Lockstep
	// clusters leave this false — the barrier is what advances them, and
	// the deterministic engine has no analogue of losing one — while real
	// clusters set it true and lean on retry and quorum advancement.
	FaultMarkers bool
	// Exempt[to] skips faults on links into node to. Callers exempt the
	// adversary's nodes: the rushing adversary owns ideal channels.
	Exempt []bool
	// AttemptLossPct drops each physical transmission independently at
	// random (seeded by AttemptSeed) on top of the schedule. Unlike
	// schedule loss it is per-attempt, not per-message, so retransmission
	// actually helps — the knob that makes real-mode retry meaningful.
	// Toggle it live with Endpoint.SetAttemptLossPct (the soak harness's
	// fault lever).
	AttemptLossPct int
	AttemptSeed    uint64
	// MaxLatency adds a uniform random in-process delivery latency to
	// each send, perturbing real-mode arrival order without whole-beat
	// delays.
	MaxLatency time.Duration
	// Metrics, when non-nil, routes the injected-fault counters into an
	// observability registry instead of endpoint-private counters (build
	// one with NewEndpointMetrics; Stats reads the same counters either
	// way).
	Metrics *Metrics
}

// Stats is a point-in-time reading of one endpoint's injected-fault
// counters.
type Stats struct {
	Dropped, Duplicated, Delayed, AttemptLost uint64
}

// Metrics is the injected-fault counter bundle. The counters are
// obs.Counters — atomic, shared-registry-capable — whether or not a
// registry is attached, so endpoint goroutines and Stats readers never
// race (the concurrent-senders regression test pins this under -race).
type Metrics struct {
	Dropped, Duplicated, Delayed, AttemptLost *obs.Counter
}

// NewEndpointMetrics registers the faultnet series for endpoint id on
// r, labeled node="<id>". A nil registry returns standalone counters,
// so callers wire it unconditionally.
func NewEndpointMetrics(r *obs.Registry, id int) *Metrics {
	if r == nil {
		return newDetachedMetrics()
	}
	node := obs.Label{Key: "node", Value: strconv.Itoa(id)}
	return &Metrics{
		Dropped:     r.Counter("ssbyz_faultnet_dropped_total", "Frames dropped by the injected fault schedule.", node),
		Duplicated:  r.Counter("ssbyz_faultnet_duplicated_total", "Frames duplicated by the injected fault schedule.", node),
		Delayed:     r.Counter("ssbyz_faultnet_delayed_total", "Frames whole-beat-delayed by the injected fault schedule.", node),
		AttemptLost: r.Counter("ssbyz_faultnet_attempt_lost_total", "Physical send attempts dropped by per-attempt loss.", node),
	}
}

// newDetachedMetrics returns live counters bound to no registry.
func newDetachedMetrics() *Metrics {
	return &Metrics{
		Dropped:     &obs.Counter{},
		Duplicated:  &obs.Counter{},
		Delayed:     &obs.Counter{},
		AttemptLost: &obs.Counter{},
	}
}

// Endpoint wraps a net.Endpoint, judging every outgoing frame against a
// Schedule at send time. Faults are injected sender-side so any
// transport — in-proc, UDP, TCP — degrades identically.
type Endpoint struct {
	inner net.Endpoint
	sched Schedule
	cfg   WrapConfig

	attemptLossPct atomic.Int32
	met            *Metrics

	mu  sync.Mutex
	rng *rand.Rand
}

// Wrap builds a faulted endpoint over inner.
func Wrap(inner net.Endpoint, sched Schedule, cfg WrapConfig) *Endpoint {
	if sched == nil {
		sched = None
	}
	met := cfg.Metrics
	if met == nil {
		met = newDetachedMetrics()
	}
	e := &Endpoint{
		inner: inner, sched: sched, cfg: cfg, met: met,
		rng: rand.New(rand.NewSource(int64(smix(cfg.AttemptSeed ^ uint64(inner.ID()))))),
	}
	e.attemptLossPct.Store(int32(cfg.AttemptLossPct))
	return e
}

// ID implements net.Endpoint.
func (e *Endpoint) ID() int { return e.inner.ID() }

// Recv implements net.Endpoint; receiving is never faulted (the
// schedule already ruled at the sender).
func (e *Endpoint) Recv() <-chan net.Packet { return e.inner.Recv() }

// Dropped implements net.Endpoint, reporting the transport's own drops;
// injected faults are in Stats.
func (e *Endpoint) Dropped() uint64 { return e.inner.Dropped() }

// Close implements net.Endpoint.
func (e *Endpoint) Close() error { return e.inner.Close() }

// Stats returns the injected-fault counters so far.
func (e *Endpoint) Stats() Stats {
	return Stats{
		Dropped:     e.met.Dropped.Load(),
		Duplicated:  e.met.Duplicated.Load(),
		Delayed:     e.met.Delayed.Load(),
		AttemptLost: e.met.AttemptLost.Load(),
	}
}

// SetAttemptLossPct changes the per-attempt loss rate live — the soak
// harness's loss toggle. Safe from any goroutine.
func (e *Endpoint) SetAttemptLossPct(pct int) {
	if pct < 0 {
		pct = 0
	}
	if pct > 100 {
		pct = 100
	}
	e.attemptLossPct.Store(int32(pct))
}

// AttemptLossPct returns the current per-attempt loss rate.
func (e *Endpoint) AttemptLossPct() int { return int(e.attemptLossPct.Load()) }

// emptyBatch is the batch payload of a frame with no messages.
var emptyBatch = wire.AppendBatchPayload(nil, 0, nil)

// Send implements net.Endpoint, ruling on the frame by its link-beat's
// verdict — one rule for every frame, since a beat frame is messages
// and marker in one. Frames that do not decode pass through untouched:
// the schedule rules on protocol traffic, not noise.
func (e *Endpoint) Send(to int, frame []byte) error {
	f, err := wire.DecodeFrame(frame)
	if err != nil {
		return e.transmit(to, frame)
	}
	// Self-links are not wires: a node's loopback delivery is never
	// faulted, matching sim.Config.Links.
	if to == e.inner.ID() {
		return e.inner.Send(to, frame)
	}
	if to < len(e.cfg.Exempt) && e.cfg.Exempt[to] {
		return e.inner.Send(to, frame)
	}
	v := e.sched.Verdict(f.Beat, f.From, to)
	if v.Drop {
		e.met.Dropped.Inc()
		if e.cfg.FaultMarkers || f.Kind != wire.KindBatch {
			return nil
		}
		// The messages are lost, the barrier is not. (Only a beat frame
		// is a barrier; the pre-fold kinds are lost whole.)
		f.Payload = emptyBatch
		return e.transmit(to, wire.AppendFrame(nil, f))
	}
	if v.Delay > 0 {
		e.met.Delayed.Inc()
		f.DeliveryBeat = f.Beat + v.Delay
		frame = wire.AppendFrame(nil, f)
	}
	if v.Dup {
		// The duplicate goes first: the original's arrival completes the
		// sender's beat at the receiver, which may then move on, so
		// whatever is to be delivered with it must already be there.
		e.met.Duplicated.Inc()
		dup := f
		dup.Copy++
		if err := e.transmit(to, wire.AppendFrame(nil, dup)); err != nil {
			return err
		}
	}
	return e.transmit(to, frame)
}

// transmit is one physical send attempt: per-attempt loss, then
// optional latency, then the inner transport.
func (e *Endpoint) transmit(to int, frame []byte) error {
	lossPct := int(e.attemptLossPct.Load())
	var latency time.Duration
	if lossPct > 0 || e.cfg.MaxLatency > 0 {
		e.mu.Lock()
		lost := lossPct > 0 && e.rng.Intn(100) < lossPct
		if e.cfg.MaxLatency > 0 {
			latency = time.Duration(e.rng.Int63n(int64(e.cfg.MaxLatency)))
		}
		e.mu.Unlock()
		if lost {
			e.met.AttemptLost.Inc()
			return nil
		}
	}
	if latency > 0 {
		data := make([]byte, len(frame))
		copy(data, frame)
		time.AfterFunc(latency, func() { e.inner.Send(to, data) })
		return nil
	}
	return e.inner.Send(to, frame)
}
