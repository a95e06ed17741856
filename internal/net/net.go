// Package net is the transport layer of the networked runtime: node ids
// exchanging opaque frames over a pluggable medium. Three transports
// implement the same two-interface contract — an in-process channel
// transport for deterministic tests and the differential harness, and
// UDP and TCP transports for real sockets — so the event-loop runtime
// (package noderuntime) and the fault injector (package faultnet) are
// transport-agnostic.
//
// Delivery semantics are deliberately weak, matching the protocols'
// needs: Send is asynchronous and best-effort, per-peer queues are
// BOUNDED (a slow or partitioned peer costs a constant amount of memory,
// never an unbounded backlog — overflow drops the newest frame and
// counts it), and nothing is retried at this layer. Reliability, to the
// degree the self-stabilizing protocols need it, lives above: the
// runtime's per-beat frames with retry/backoff, and below that the
// protocols' own tolerance of loss as just another transient fault.
package net

import "errors"

// Packet is one received frame. Data is owned by the receiver.
type Packet struct {
	// From is the sender id as the transport knows it, and receivers
	// drop any frame whose header claims another. The channel transport
	// knows the sending endpoint. UDP maps the datagram's source address
	// through the address book and drops unknown sources, so a peer can
	// speak only as itself (short of spoofing IP source addresses). TCP
	// delivers the id the remote declared in its connection hello, which
	// nothing checks yet: there a Byzantine peer can still claim any id,
	// an honest peer's included, win the receiver's first-arrival dedup
	// with forged frames, or forge a quorum of peers far ahead. Closing
	// that is the open TCP half of ROADMAP item 1.
	From int
	Data []byte
}

// Endpoint is one node's attachment to the network.
//
// Send enqueues frame for delivery to peer `to` and returns without
// waiting. The frame is read-only from the moment it is passed in — it
// may be shared by several concurrent Sends (a broadcast encodes once)
// — and must not be mutated by any transport. Send never blocks on a
// slow peer: a full queue drops the frame (counted in Dropped).
//
// Close detaches the endpoint; frames sent to a closed endpoint are
// dropped, modelling a crashed process whose kernel buffers are gone.
type Endpoint interface {
	ID() int
	Send(to int, frame []byte) error
	Recv() <-chan Packet
	// Dropped counts frames lost to bounded-queue overflow or detached
	// peers at this endpoint's sending side (observability; the chaos
	// tests assert boundedness with it).
	Dropped() uint64
	Close() error
}

// ReconnectCounter is the optional interface of endpoints whose
// transport redials broken connections (TCP). Metrics exporters probe
// for it with a type assertion on the raw (pre-wrap) endpoint.
type ReconnectCounter interface {
	// Reconnects counts successful redials after each link's first
	// connection.
	Reconnects() uint64
}

// UnknownSourceCounter is the optional interface of endpoints that
// authenticate senders by address (UDP). Metrics exporters probe for it
// with a type assertion on the raw (pre-wrap) endpoint.
type UnknownSourceCounter interface {
	// UnknownSources counts datagrams dropped because their source
	// address is no peer's.
	UnknownSources() uint64
}

// Transport is a cluster-wide medium handing out endpoints by node id.
// Endpoint may be called again for an id after its previous endpoint
// closed — a restart re-attaches — but two live endpoints for one id are
// an error.
type Transport interface {
	Endpoint(id int) (Endpoint, error)
	Close() error
}

// ErrClosed is returned by operations on a closed endpoint or transport.
var ErrClosed = errors.New("net: closed")
