package noderuntime

import (
	"ssbyzclock/internal/faultnet"
	"ssbyzclock/internal/net"
	"ssbyzclock/internal/pool"
	"ssbyzclock/internal/proto"
)

// MultiNodeConfig describes a node hosting T tenants' protocol
// instances behind a single endpoint: the networked face of the
// multi-tenant engine (package multi). It is the ordinary Node loop —
// a link-beat's one frame carries every tenant's messages, so
// frames/beat and syscalls/beat are O(links), independent of the tenant
// count — and on the receive side a sender's frame expands into
// per-tenant inboxes ordered exactly as the lockstep engine orders
// them, so each tenant's trajectory is byte-identical to a standalone
// single-tenant run (the multi-tenant differential harness pins this
// per tenant, fault schedule and adversary included).
//
// Multi-tenant nodes run Lockstep: that is the mode with an engine
// oracle to be checked against.
type MultiNodeConfig struct {
	N, F int
	ID   int
	// Faulty marks the adversary's ids (replay-determinism device, as in
	// NodeConfig).
	Faulty []bool
	// Endpoint carries ALL tenants' traffic for this node id.
	Endpoint net.Endpoint
	// Links is consulted for per-tenant inbox reordering (Shuffle), as in
	// NodeConfig.
	Links faultnet.Schedule
	// Protocols[t] is tenant t's instance for this node id.
	Protocols []proto.Protocol
	// Pool, when non-nil, is the shared lease pool for all tenants'
	// compose payloads (recycled at the encode boundary, once per beat).
	Pool *pool.Node
	// OnBeat, when set, observes each tenant after each delivered beat,
	// from the node's goroutine.
	OnBeat func(tenant int, beat uint64, p proto.Protocol)
	// MaxBeats stops the loop after that many beats (0 = run until Stop).
	MaxBeats uint64
	// Metrics, when non-nil, instruments the loop; nil costs one branch.
	Metrics *NodeMetrics
}

// NewMultiNode builds a Lockstep node hosting cfg.Protocols; Start
// launches its loop.
func NewMultiNode(cfg MultiNodeConfig) *Node {
	return newNode(NodeConfig{
		N: cfg.N, F: cfg.F, ID: cfg.ID,
		Faulty: cfg.Faulty, Mode: Lockstep,
		Endpoint: cfg.Endpoint, Links: cfg.Links, Pool: cfg.Pool,
		MaxBeats: cfg.MaxBeats, Metrics: cfg.Metrics,
	}, cfg.Protocols, cfg.OnBeat)
}
