package noderuntime

import (
	"strconv"
	"time"

	"ssbyzclock/internal/obs"
)

// quorumWaitBoundMs caps the quorum-wait histogram's exact range; waits
// beyond 10s land in the overflow bin (the beat timeout should fire
// long before that).
const quorumWaitBoundMs = 10_000

// NodeMetrics is one node's runtime instrumentation: beat advancement,
// retry pressure, and catch-up behavior. Handles are registered per
// node id; a restart re-registers idempotently, so counters accumulate
// across the node's incarnations — exactly what a process supervisor
// scraping /metrics expects. All methods are nil-receiver-safe, so the
// event loop calls them unconditionally.
type NodeMetrics struct {
	beats        *obs.Counter
	retransmits  *obs.Counter
	beatTimeouts *obs.Counter
	jumps        *obs.Counter
	skipped      *obs.Counter
	quorumWait   *obs.HistShard
	// frames counts frames handed to the endpoint, retransmissions
	// included — the observable behind the claim that a node-beat is n
	// frames whatever the message and tenant counts.
	frames *obs.Counter
}

// NewNodeMetrics registers node id's runtime series on r (nil r → nil,
// the zero-cost detached mode).
func NewNodeMetrics(r *obs.Registry, id int) *NodeMetrics {
	if r == nil {
		return nil
	}
	node := obs.Label{Key: "node", Value: strconv.Itoa(id)}
	m := &NodeMetrics{
		beats:        r.Counter("ssbyz_node_beats_total", "Beats delivered by the node's event loop.", node),
		retransmits:  r.Counter("ssbyz_node_retransmits_total", "Current-beat frame retransmissions (backoff timer fired).", node),
		beatTimeouts: r.Counter("ssbyz_node_beat_timeouts_total", "Beats advanced by timeout instead of quorum.", node),
		jumps:        r.Counter("ssbyz_node_catchup_jumps_total", "Catch-up jumps to the quorum beat after falling behind.", node),
		skipped:      r.Counter("ssbyz_node_catchup_skipped_beats_total", "Beats skipped (no compose or delivery) by catch-up jumps.", node),
		quorumWait: r.Histogram("ssbyz_node_quorum_wait_ms",
			"Per-beat wait for a completion quorum, milliseconds.", quorumWaitBoundMs, node).Shard(),
	}
	// Every frame is a batched link-beat; the constant kind label keeps
	// the series name dashboards and tests already select on.
	m.frames = r.Counter("ssbyz_net_frames_total",
		"Frames sent by the node's endpoint (one per link per beat, plus retransmissions).",
		node, obs.Label{Key: "kind", Value: "batched"})
	return m
}

func (m *NodeMetrics) frameSent() {
	if m == nil {
		return
	}
	m.frames.Inc()
}

func (m *NodeMetrics) beatDone() {
	if m == nil {
		return
	}
	m.beats.Inc()
}

func (m *NodeMetrics) retransmit() {
	if m == nil {
		return
	}
	m.retransmits.Inc()
}

func (m *NodeMetrics) timeout() {
	if m == nil {
		return
	}
	m.beatTimeouts.Inc()
}

func (m *NodeMetrics) jump(skippedBeats uint64) {
	if m == nil {
		return
	}
	m.jumps.Inc()
	m.skipped.Add(skippedBeats)
}

func (m *NodeMetrics) observeWait(since time.Time) {
	if m == nil {
		return
	}
	m.quorumWait.Observe(int(time.Since(since).Milliseconds()))
}
