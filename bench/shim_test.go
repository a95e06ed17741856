package main

import (
	"math/rand"
	"testing"
	"time"

	"ssbyzclock/internal/net"
	"ssbyzclock/internal/proto"
)

// fullProto implements every optional interface the runtime probes
// for and records the calls.
type fullProto struct{ calls []string }

func (p *fullProto) Compose(uint64) []proto.Send {
	p.calls = append(p.calls, "compose")
	return []proto.Send{{To: proto.Broadcast}}
}
func (p *fullProto) Deliver(uint64, []proto.Recv) { p.calls = append(p.calls, "deliver") }
func (p *fullProto) Scramble(*rand.Rand)          { p.calls = append(p.calls, "scramble") }
func (p *fullProto) Clock() (uint64, bool)        { p.calls = append(p.calls, "clock"); return 41, true }
func (p *fullProto) Modulus() uint64              { p.calls = append(p.calls, "modulus"); return 64 }
func (p *fullProto) EndBeat()                     { p.calls = append(p.calls, "endbeat") }

// bareProto implements nothing optional.
type bareProto struct{}

func (bareProto) Compose(uint64) []proto.Send  { return nil }
func (bareProto) Deliver(uint64, []proto.Recv) {}

func TestProtocolShimForwardsOptionalInterfaces(t *testing.T) {
	rec := newRecorder()
	ns := &nodeShim{rec: rec, trace: 1, epoch: time.Now()}
	inner := &fullProto{}
	var p proto.Protocol = &shimProto{inner: inner, ns: ns}

	if got := p.Compose(3); len(got) != 1 {
		t.Fatalf("Compose returned %d sends, want the inner's 1", len(got))
	}
	p.Deliver(3, nil)
	s, ok := p.(proto.Scrambler)
	if !ok {
		t.Fatal("shim is not a proto.Scrambler")
	}
	s.Scramble(rand.New(rand.NewSource(1)))
	c, ok := p.(proto.ClockReader)
	if !ok {
		t.Fatal("shim is not a proto.ClockReader")
	}
	if v, ok := c.Clock(); v != 41 || !ok {
		t.Fatalf("Clock = %d, %v; want the inner's 41, true", v, ok)
	}
	if c.Modulus() != 64 {
		t.Fatal("Modulus not forwarded")
	}
	e, ok := p.(proto.BeatEnder)
	if !ok {
		t.Fatal("shim is not a proto.BeatEnder")
	}
	e.EndBeat()
	want := []string{"compose", "deliver", "scramble", "clock", "modulus", "endbeat"}
	if len(inner.calls) != len(want) {
		t.Fatalf("inner saw %v, want %v", inner.calls, want)
	}
	for i := range want {
		if inner.calls[i] != want[i] {
			t.Fatalf("inner saw %v, want %v", inner.calls, want)
		}
	}
	if _, n := rec.total("proto.compose"); n != 1 {
		t.Fatal("Compose left no span")
	}
	if _, n := rec.total("proto.deliver"); n != 1 {
		t.Fatal("Deliver left no span")
	}

	// Over a protocol without the optional interfaces the shim's
	// methods are harmless no-ops.
	bare := &shimProto{inner: bareProto{}, ns: ns}
	bare.Scramble(nil)
	bare.EndBeat()
	if v, ok := bare.Clock(); v != 0 || ok {
		t.Fatalf("bare Clock = %d, %v; want 0, false", v, ok)
	}
}

func TestShimFactoryBindsNodeByID(t *testing.T) {
	nodes := []*nodeShim{{}, {}}
	f := shimFactory(func(proto.Env) proto.Protocol { return bareProto{} }, nodes)
	p := f(proto.Env{ID: 1}).(*shimProto)
	if p.ns != nodes[1] {
		t.Fatal("factory bound the wrong node's shim")
	}
}

// fakeEndpoint is an in-memory net.Endpoint; no sockets.
type fakeEndpoint struct {
	sent   [][]byte
	recv   chan net.Packet
	closed bool
}

func (e *fakeEndpoint) ID() int { return 2 }
func (e *fakeEndpoint) Send(_ int, frame []byte) error {
	e.sent = append(e.sent, frame)
	return nil
}
func (e *fakeEndpoint) Recv() <-chan net.Packet { return e.recv }
func (e *fakeEndpoint) Dropped() uint64         { return 17 }
func (e *fakeEndpoint) Close() error            { e.closed = true; return nil }

type fakeTransport struct {
	ep     *fakeEndpoint
	closed bool
}

func (t *fakeTransport) Endpoint(int) (net.Endpoint, error) { return t.ep, nil }
func (t *fakeTransport) Close() error                       { t.closed = true; return nil }

func TestTransportShimForwardsAndCounts(t *testing.T) {
	rec := newRecorder()
	inner := &fakeTransport{ep: &fakeEndpoint{recv: make(chan net.Packet, 1)}}
	nodes := []*nodeShim{nil, nil, {rec: rec, trace: 3, epoch: time.Now()}}
	var tr net.Transport = &shimTransport{inner: inner, nodes: nodes}
	ep, err := tr.Endpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	if ep.ID() != 2 || ep.Dropped() != 17 {
		t.Fatalf("ID %d Dropped %d, want the inner's 2 and 17", ep.ID(), ep.Dropped())
	}
	inner.ep.recv <- net.Packet{From: 1}
	if p := <-ep.Recv(); p.From != 1 {
		t.Fatal("Recv is not the inner channel")
	}
	for i := 0; i < 2*sendSampleEvery; i++ {
		if err := ep.Send(1, []byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	ns := nodes[2]
	if len(inner.ep.sent) != 2*sendSampleEvery || ns.sends != 2*sendSampleEvery || ns.sendBytes != 6*sendSampleEvery {
		t.Fatalf("inner got %d frames; shim counted %d frames, %d bytes", len(inner.ep.sent), ns.sends, ns.sendBytes)
	}
	if _, n := rec.total("net.send"); n != 2 || len(ns.sendSampleUs) != 2 {
		t.Fatalf("%d send spans, %d latency samples; want 2 and 2 (1 in %d)", n, len(ns.sendSampleUs), sendSampleEvery)
	}
	if ns.ep != net.Endpoint(inner.ep) {
		t.Fatal("shim did not keep the raw endpoint for Dropped()")
	}
	if err := ep.Close(); err != nil || !inner.ep.closed {
		t.Fatal("Close not forwarded to the endpoint")
	}
	if err := tr.Close(); err != nil || !inner.closed {
		t.Fatal("Close not forwarded to the transport")
	}
}

func TestBeatSpanCoversIntervalBetweenOnBeats(t *testing.T) {
	rec := newRecorder()
	ns := &nodeShim{rec: rec, trace: 1, epoch: rec.epoch}
	ns.beatDone(100) // first OnBeat only opens the interval
	p := &shimProto{inner: bareProto{}, ns: ns}
	p.Compose(1)
	p.Deliver(1, nil)
	ns.beatDone(900)
	if ns.beats != 1 {
		t.Fatalf("beats %d, want 1", ns.beats)
	}
	ns2, n := rec.total("noderuntime.beat")
	if n != 1 || ns2 != 800 {
		t.Fatalf("beat span %d ns over %d spans, want 800 over 1", ns2, n)
	}
	// Compose and Deliver are children of that beat span.
	var beatID int64
	for _, s := range rec.spans {
		if s.Name == "noderuntime.beat" {
			beatID = s.ID
		}
	}
	for _, s := range rec.spans {
		if s.Name != "noderuntime.beat" && s.Parent != beatID {
			t.Fatalf("span %s has parent %d, want the beat span %d", s.Name, s.Parent, beatID)
		}
	}
}
