package main

// metricDef mirrors one entry of BENCHMARK.json (a test holds the two
// in step). Bound is the share of the baseline median an end-to-end
// metric may worsen by; per-layer metrics have none. Moves records,
// for a per-layer metric, which end-to-end metric on which workload it
// is expected to move — the interaction map of README.md, kept next to
// the names so later issues cite it instead of re-deriving it.
// BENCHMARK.json's schema has no field for it.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Moves  string
}

// endToEnd is reported by every workload's untraced run. A "beat" is
// one protocol-instance beat: an engine beat, one tenant's beat, or one
// beat delivered by the average honest node of a networked cluster.
//
// Bounds: the wall-clock and CPU metrics sit at the contract's ceiling
// because this class of machine (2 shared vCPUs) moves them by 5–20%
// between runs of one commit (README.md, repeatability table); the
// counted metrics repeat to a fraction of a percent and are held
// tighter.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "beats_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "beat_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "agreed_ratio", Unit: "fraction", Better: "higher", Bound: 0.10},
	{Name: "cpu_ms_per_beat", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_beat", Unit: "count", Better: "lower", Bound: 0.05},
	{Name: "resident_bytes", Unit: "B", Better: "lower", Bound: 0.25},
}

// The workload names.
const (
	onEngine = "engine-n16"
	onMulti  = "multi-n4-t1000"
	onUDP    = "udp-n4"
	onLoss   = "udp-n4-loss5"
)

// perLayer is reported by every workload's traced run; a metric a
// workload does not exercise reads 0 there.
var perLayer = []metricDef{
	// field
	{Name: "field.eval_ns_per_term.n4", Unit: "ns", Better: "lower", Moves: "beats_per_s on " + onMulti + "; none on the UDP workloads"},
	{Name: "field.eval_ns_per_term.n16", Unit: "ns", Better: "lower", Moves: "beats_per_s, beat_ms_p90 on " + onEngine + "; none on the UDP workloads"},
	{Name: "field.decode_us.n4", Unit: "us", Better: "lower", Moves: "beats_per_s on " + onMulti},
	{Name: "field.decode_us.n16", Unit: "us", Better: "lower", Moves: "beats_per_s, beat_ms_p90 on " + onEngine},
	{Name: "field.decode_err_us.n16", Unit: "us", Better: "lower", Moves: "beat_ms_p90 on " + onEngine + " (ClockSplitter corrupts shares)"},
	{Name: "field.evalbatch_vs_inline_ratio", Unit: "ratio", Better: "lower", Moves: "beats_per_s on " + onMulti + " only"},
	// gvss
	{Name: "gvss.session_us.n4", Unit: "us", Better: "lower", Moves: "beats_per_s on " + onMulti},
	{Name: "gvss.session_us.n16", Unit: "us", Better: "lower", Moves: "beats_per_s, beat_ms_p90 on " + onEngine},
	{Name: "gvss.session_allocs.n16", Unit: "count", Better: "lower", Moves: "allocs_per_beat on " + onEngine},
	// sscoin / coin / core
	{Name: "sscoin.beat_us.n16", Unit: "us", Better: "lower", Moves: "beats_per_s on " + onEngine + ": a coin win"},
	{Name: "core.stack_self_us.n16", Unit: "us", Better: "lower", Moves: "beats_per_s on " + onEngine + ": a clock-stack win"},
	{Name: "core.stabilize_beats_mean", Unit: "beats", Better: "lower", Moves: "the paper's headline quantity; a behaviour change, not a speed-up, moves it"},
	{Name: "core.stabilize_ms_p50", Unit: "ms", Better: "lower", Moves: "stabilize_beats_mean x beat time on " + onEngine},
	// sim
	{Name: "sim.compose_ms_per_beat", Unit: "ms", Better: "lower", Moves: "beats_per_s, beat_ms_p90 on " + onEngine},
	{Name: "sim.exchange_ms_per_beat", Unit: "ms", Better: "lower", Moves: "beats_per_s on " + onEngine + " (sequential: bounds the parallel speed-up)"},
	{Name: "sim.deliver_ms_per_beat", Unit: "ms", Better: "lower", Moves: "beats_per_s, beat_ms_p90 on " + onEngine},
	{Name: "sim.finish_ms_per_beat", Unit: "ms", Better: "lower", Moves: "allocs_per_beat on " + onEngine + " (recycle + EndBeat parking)"},
	{Name: "sim.msgs_per_beat", Unit: "count", Better: "lower", Moves: "beats_per_s on " + onEngine + ", " + onMulti + "; net.frames_per_beat on the UDP workloads"},
	{Name: "sim.bytes_per_beat", Unit: "B", Better: "lower", Moves: "net.bytes_per_beat on the UDP workloads"},
	{Name: "sim.hot_n4_beat_us", Unit: "us", Better: "lower", Moves: "the single-hot-instance baseline under multi.vs_hot_engine_ratio and noderuntime.vs_engine_ratio"},
	// pool
	{Name: "pool.lease_recycle_ns", Unit: "ns", Better: "lower", Moves: "allocs_per_beat, resident_bytes, beats_per_s on " + onMulti},
	// multi
	{Name: "multi.ns_per_tenant_beat", Unit: "ns", Better: "lower", Moves: "beats_per_s on " + onMulti},
	{Name: "multi.vs_fleet_ratio", Unit: "ratio", Better: "lower", Moves: "beats_per_s on " + onMulti + ": below 1 the multiplexer earns its lines"},
	{Name: "multi.vs_hot_engine_ratio", Unit: "ratio", Better: "lower", Moves: "beats_per_s on " + onMulti + ": the cache-residency penalty"},
	{Name: "multi.setup_ms_per_tenant", Unit: "ms", Better: "lower", Moves: "setup_s on " + onMulti},
	{Name: "multi.resident_bytes_per_tenant", Unit: "B", Better: "lower", Moves: "resident_bytes on " + onMulti},
	// wire
	{Name: "wire.encode_ns_per_msg", Unit: "ns", Better: "lower", Moves: "cpu_ms_per_beat, beats_per_s on " + onUDP + "; none on " + onEngine + ", " + onMulti},
	{Name: "wire.decode_ns_per_msg", Unit: "ns", Better: "lower", Moves: "cpu_ms_per_beat, beats_per_s on " + onUDP + "; none on " + onEngine + ", " + onMulti},
	{Name: "wire.frame_roundtrip_ns", Unit: "ns", Better: "lower", Moves: "cpu_ms_per_beat on " + onUDP},
	{Name: "wire.bytes_per_msg", Unit: "B", Better: "lower", Moves: "net.bytes_per_beat on the UDP workloads"},
	{Name: "wire.encode_allocs_per_msg", Unit: "count", Better: "lower", Moves: "allocs_per_beat on " + onUDP},
	{Name: "wire.batch_encode_ns_per_msg.t1", Unit: "ns", Better: "lower", Moves: "none yet: no workload runs the batched multi-tenant runtime"},
	{Name: "wire.batch_encode_ns_per_msg.t32", Unit: "ns", Better: "lower", Moves: "none yet: no workload runs the batched multi-tenant runtime"},
	// net
	{Name: "net.frames_per_beat", Unit: "count", Better: "lower", Moves: "beats_per_s, beat_ms_p90, agreed_ratio on " + onLoss + " (a link's beat arrives whole with 0.95^frames-per-link); cpu_ms_per_beat on " + onUDP},
	{Name: "net.bytes_per_beat", Unit: "B", Better: "lower", Moves: "cpu_ms_per_beat on " + onUDP},
	{Name: "net.send_us_p50", Unit: "us", Better: "lower", Moves: "cpu_ms_per_beat, beats_per_s on " + onUDP},
	{Name: "net.send_busy_ms_per_beat", Unit: "ms", Better: "lower", Moves: "cpu_ms_per_beat, beats_per_s on " + onUDP},
	{Name: "net.recv_dropped_per_kbeat", Unit: "count", Better: "lower", Moves: "agreed_ratio, beat_ms_p90 on the UDP workloads"},
	{Name: "net.chan_beats_per_s", Unit: "1/s", Better: "higher", Moves: "beats_per_s on " + onUDP + " minus this = syscall cost"},
	{Name: "net.tcp_beats_per_s", Unit: "1/s", Better: "higher", Moves: "none: the TCP rung of the same cluster, for comparison"},
	// faultnet
	{Name: "faultnet.attempt_lost_per_beat", Unit: "count", Better: "lower", Moves: "beats_per_s, beat_ms_p90 on " + onLoss + "; 0 on " + onUDP},
	{Name: "faultnet.wrap_send_overhead_ns", Unit: "ns", Better: "lower", Moves: "cpu_ms_per_beat on " + onUDP + " (pass-through wrapper)"},
	// noderuntime
	{Name: "noderuntime.compose_ms_per_beat", Unit: "ms", Better: "lower", Moves: "cpu_ms_per_beat on the UDP workloads (protocol share, expected < 25%)"},
	{Name: "noderuntime.deliver_ms_per_beat", Unit: "ms", Better: "lower", Moves: "cpu_ms_per_beat on the UDP workloads (protocol share, expected < 25%)"},
	{Name: "noderuntime.loop_self_ms_per_beat", Unit: "ms", Better: "lower", Moves: "beats_per_s, cpu_ms_per_beat, allocs_per_beat on " + onUDP},
	{Name: "noderuntime.vs_engine_ratio", Unit: "ratio", Better: "lower", Moves: "beats_per_s on " + onUDP + ": which layer eats the networked beat"},
	{Name: "noderuntime.retransmits_per_beat", Unit: "count", Better: "lower", Moves: "beats_per_s, beat_ms_p90, agreed_ratio on " + onLoss + "; ~0 on " + onUDP},
	{Name: "noderuntime.timeout_ratio", Unit: "fraction", Better: "lower", Moves: "beats_per_s, agreed_ratio on " + onLoss + "; ~0 on " + onUDP},
	{Name: "noderuntime.retry_beat_ratio", Unit: "fraction", Better: "lower", Moves: "beat_ms_p90, beats_per_s on " + onLoss + "; ~0 on " + onUDP},
	{Name: "noderuntime.quorum_wait_ms_p50", Unit: "ms", Better: "lower", Moves: "beats_per_s on " + onLoss},
	{Name: "noderuntime.catchup_jumps_per_kbeat", Unit: "count", Better: "lower", Moves: "agreed_ratio on " + onLoss},
	{Name: "noderuntime.desync_episodes_per_kbeat", Unit: "count", Better: "lower", Moves: "agreed_ratio on both UDP workloads"},
	{Name: "noderuntime.restabilize_beats_p50", Unit: "beats", Better: "lower", Moves: "agreed_ratio on both UDP workloads"},
	// proc (every workload)
	{Name: "proc.beat_ms_p50", Unit: "ms", Better: "lower", Moves: "demoted from end-to-end: unsteady on " + onLoss + " (README.md)"},
	{Name: "proc.beat_ms_p99", Unit: "ms", Better: "lower", Moves: "demoted from end-to-end: scheduler-noise bound on " + onUDP + ", pinned to the timeout on " + onLoss},
	{Name: "proc.cpu_ms_per_beat", Unit: "ms", Better: "lower", Moves: "cpu_ms_per_beat, measured on the traced pass"},
	{Name: "proc.bytes_alloc_per_beat", Unit: "B", Better: "lower", Moves: "allocs_per_beat; proc.gc_cycles"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower", Moves: "beat_ms_p90 on every workload"},
	{Name: "proc.gc_pause_ms_total", Unit: "ms", Better: "lower", Moves: "beat_ms_p90 on every workload"},
	{Name: "proc.heap_peak_mb", Unit: "MB", Better: "lower", Moves: "resident_bytes"},
	{Name: "proc.trace_overhead_ratio", Unit: "ratio", Better: "higher", Moves: "none: traced / untraced beats_per_s, expected >= 0.9"},
}
