package main

import (
	"math/rand"
	"time"

	"ssbyzclock/internal/net"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/sim"
)

// The traced networked run sees inside the node loop through two
// shims placed around the program's public seams: a proto.Protocol
// wrapper (times Compose and Deliver) handed in through the cluster's
// NodeFactory, and a net.Transport wrapper (times and counts Send)
// handed in as the cluster's transport. Everything a node's shims
// touch is touched only from that node's own goroutine, so they need
// no locks; the controller reads them after the cluster stopped.

// sendSampleEvery thins Send spans: every Send is counted and timed
// into the totals, every sendSampleEvery-th also leaves a span and a
// latency sample.
const sendSampleEvery = 16

// nodeShim is one node's tracing state.
type nodeShim struct {
	rec   *recorder
	trace int64 // node id + 1
	epoch time.Time

	beatID    int64 // span id reserved for the beat in progress
	beatStart int64 // ns since epoch: previous OnBeat

	composeNs, deliverNs int64
	beats                int64

	sends, sendBytes int64
	sendNs           int64
	sendSampleUs     []float64
	ep               net.Endpoint
}

func (s *nodeShim) since() int64 { return int64(time.Since(s.epoch)) }

// toRec converts the shim's clock (cluster epoch) to the recorder's.
func (s *nodeShim) toRec(t int64) int64 { return t + int64(s.epoch.Sub(s.rec.epoch)) }

func (s *nodeShim) curBeat() int64 {
	if s.beatID == 0 {
		s.beatID = s.rec.newID()
	}
	return s.beatID
}

// beatDone closes the beat span at OnBeat: the beat interval runs from
// the previous OnBeat to this one, so compose + deliver + loop self
// time equals the interval by construction.
func (s *nodeShim) beatDone(now int64) {
	if s.beatStart != 0 {
		s.rec.addWithID(s.curBeat(), "noderuntime.beat", 0, s.trace, s.toRec(s.beatStart), s.toRec(now))
		s.beats++
	}
	s.beatID = 0
	s.beatStart = now
}

// shimProto wraps a node's protocol instance, timing Compose and
// Deliver and forwarding the optional interfaces the runtime probes
// for (Scrambler at start, ClockReader from OnBeat, BeatEnder after
// every beat).
type shimProto struct {
	inner proto.Protocol
	ns    *nodeShim
}

func shimFactory(inner sim.NodeFactory, nodes []*nodeShim) sim.NodeFactory {
	return func(env proto.Env) proto.Protocol {
		return &shimProto{inner: inner(env), ns: nodes[env.ID]}
	}
}

func (p *shimProto) Compose(beat uint64) []proto.Send {
	t0 := p.ns.since()
	out := p.inner.Compose(beat)
	t1 := p.ns.since()
	p.ns.composeNs += t1 - t0
	p.ns.rec.add("proto.compose", p.ns.curBeat(), p.ns.trace, p.ns.toRec(t0), p.ns.toRec(t1))
	return out
}

func (p *shimProto) Deliver(beat uint64, inbox []proto.Recv) {
	t0 := p.ns.since()
	p.inner.Deliver(beat, inbox)
	t1 := p.ns.since()
	p.ns.deliverNs += t1 - t0
	p.ns.rec.add("proto.deliver", p.ns.curBeat(), p.ns.trace, p.ns.toRec(t0), p.ns.toRec(t1))
}

func (p *shimProto) Scramble(rng *rand.Rand) {
	if s, ok := p.inner.(proto.Scrambler); ok {
		s.Scramble(rng)
	}
}

func (p *shimProto) Clock() (uint64, bool) {
	if c, ok := p.inner.(proto.ClockReader); ok {
		return c.Clock()
	}
	return 0, false
}

func (p *shimProto) Modulus() uint64 {
	if c, ok := p.inner.(proto.ClockReader); ok {
		return c.Modulus()
	}
	return 0
}

func (p *shimProto) EndBeat() {
	if e, ok := p.inner.(proto.BeatEnder); ok {
		e.EndBeat()
	}
}

// shimTransport hands out endpoints whose Send is counted and timed.
type shimTransport struct {
	inner net.Transport
	nodes []*nodeShim
}

func (t *shimTransport) Endpoint(id int) (net.Endpoint, error) {
	ep, err := t.inner.Endpoint(id)
	if err != nil {
		return nil, err
	}
	t.nodes[id].ep = ep
	return &shimEndpoint{Endpoint: ep, ns: t.nodes[id]}, nil
}

func (t *shimTransport) Close() error { return t.inner.Close() }

// shimEndpoint forwards ID, Recv, Dropped and Close to the embedded
// endpoint and instruments Send.
type shimEndpoint struct {
	net.Endpoint
	ns *nodeShim
}

func (e *shimEndpoint) Send(to int, frame []byte) error {
	s := e.ns
	t0 := s.since()
	err := e.Endpoint.Send(to, frame)
	t1 := s.since()
	s.sends++
	s.sendBytes += int64(len(frame))
	s.sendNs += t1 - t0
	if s.sends%sendSampleEvery == 0 {
		s.sendSampleUs = append(s.sendSampleUs, float64(t1-t0)/1e3)
		s.rec.add("net.send", s.curBeat(), s.trace, s.toRec(t0), s.toRec(t1))
	}
	return err
}

// fillShimMetrics turns the shims' and the registry's counts into the
// net.* and noderuntime.* per-layer metrics. Shim totals cover the
// cluster's whole life (warm-up included); they are divided by the
// beats the shims saw, not the window's.
func (f *fleet) fillShimMetrics(m metrics, after, before map[string]float64, a beatAnalysis) {
	var beats, sends, bytes, sendNs, composeNs, deliverNs int64
	var dropped uint64
	var sample []float64
	for _, c := range f.clusters {
		for _, id := range c.honest {
			s := c.shims[id]
			beats += s.beats
			sends += s.sends
			bytes += s.sendBytes
			sendNs += s.sendNs
			composeNs += s.composeNs
			deliverNs += s.deliverNs
			dropped += s.ep.Dropped()
			sample = append(sample, s.sendSampleUs...)
		}
	}
	nb := float64(max(beats, 1))
	m["net.frames_per_beat"] = float64(sends) / nb
	m["net.bytes_per_beat"] = float64(bytes) / nb
	m["net.send_us_p50"] = median(sample)
	m["net.send_busy_ms_per_beat"] = float64(sendNs) / 1e6 / nb
	m["net.recv_dropped_per_kbeat"] = 1e3 * float64(dropped) / nb
	m["noderuntime.compose_ms_per_beat"] = float64(composeNs) / 1e6 / nb
	m["noderuntime.deliver_ms_per_beat"] = float64(deliverNs) / 1e6 / nb
	m["noderuntime.loop_self_ms_per_beat"] = mean(a.intervalMs) - m["noderuntime.compose_ms_per_beat"] - m["noderuntime.deliver_ms_per_beat"]

	delta := func(name string) float64 { return after[name] - before[name] }
	wb := float64(max(a.nodeBeats, 1))
	m["noderuntime.retransmits_per_beat"] = delta("ssbyz_node_retransmits_total") / wb
	m["noderuntime.catchup_jumps_per_kbeat"] = 1e3 * delta("ssbyz_node_catchup_jumps_total") / wb
	m["noderuntime.quorum_wait_ms_p50"] = f.quorumWaitP50()
}
