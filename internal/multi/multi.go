// Package multi multiplexes many independent clock-sync instances
// (tenants) onto one stepping engine — the "millions of users"
// workload: instead of T processes each stepping one protocol stack,
// one engine steps T stacks per beat under a single scheduler.
//
// Two structural ideas, both invisible to the per-tenant protocol code:
//
//   - Flat instance-major work layout, chunked for cache residency.
//     Work unit u = t·N + i is tenant t's node i; whole tenants are
//     assigned to scheduler workers in contiguous blocks, and each
//     worker steps its block in chunks of a few dozen tenants, running
//     a chunk's compose, exchange, deliver and recycle phases
//     back-to-back before moving on. A global phase-major sweep would
//     traverse all T tenants' state once per phase — every access a
//     cache miss at service scale; the chunk is sized so its tenants'
//     state stays hot across all phases of the beat.
//   - One pool per worker group. All tenant nodes multiplexed onto one
//     worker lease from the group's pool.Node, so resident buffer memory
//     scales with one chunk's working set, not with T × the working
//     set. The group runs its tenants strictly sequentially, so one
//     Recycle per chunk ends exactly the chunk's leases.
//
// Determinism: a T-tenant engine is byte-identical, per tenant, to T
// independent single-tenant engines built from the same per-tenant
// configs, at every worker count and chunk size. Each tenant keeps its
// own sim.Engine (constructed by sim.New, so all per-tenant RNG
// streams are exactly the standalone ones); tenants never interact, so
// any grouping of their phase executions is equivalent; and buffer
// identity never reaches protocol output (the pooling contract). The
// differential harness (internal/difftest) enforces all of it.
package multi

import (
	"fmt"

	"ssbyzclock/internal/obs"
	"ssbyzclock/internal/pool"
	"ssbyzclock/internal/sim"
)

// Config describes a multi-tenant cluster: T tenants, each an
// independent sim-engine cluster of the same size.
type Config struct {
	// Tenants is T, the number of independent instances.
	Tenants int
	// Workers sizes the shared scheduler all phases fan out over. 0
	// selects GOMAXPROCS, as in sim.Config.
	Workers int
	// Node is the per-tenant config template. Tenant t runs it with
	// Seed+t (each tenant an independent seeded run); Workers and Pools
	// are managed by this engine and ignored on the template. Pool
	// selects the pooling mode for the group pools.
	Node sim.Config
	// NodeFor, when non-nil, overrides Node: it returns tenant t's
	// full config (including its Seed). All tenants must share N. The
	// differential-harness tests use it to give each tenant its own
	// adversary constructor.
	NodeFor func(t int) sim.Config
	// Metrics, when non-nil, instruments the multiplexed engine with
	// AGGREGATE series only (total tenant-beats, summed messages and
	// bytes, converged-tenant gauges) — per-tenant labels at service
	// scale would mint T series per name, so tenants are deliberately
	// unlabeled. The template's own Metrics field is ignored: tenant
	// engines run detached.
	Metrics *obs.Registry
}

// multiMetrics is the engine-wide aggregate instrumentation. Message
// and byte counters are flushed as per-beat deltas from Step's calling
// goroutine (post-barrier, so tenant state is quiescent); scrapes never
// touch tenant engines.
type multiMetrics struct {
	beats       *obs.Counter
	tenantBeats *obs.Counter
	honestMsgs  *obs.Counter
	faultyMsgs  *obs.Counter
	honestBytes *obs.Counter
	tenants     *obs.Gauge
	converged   *obs.Gauge
	violations  *obs.Gauge

	lastHonestMsgs, lastFaultyMsgs, lastHonestBytes uint64
}

func newMultiMetrics(r *obs.Registry) *multiMetrics {
	if r == nil {
		return nil
	}
	return &multiMetrics{
		beats:       r.Counter("ssbyz_multi_beats_total", "Lockstep beats executed by the multiplexed engine."),
		tenantBeats: r.Counter("ssbyz_multi_tenant_beats_total", "Tenant-beats executed (beats x tenants)."),
		honestMsgs:  r.Counter("ssbyz_multi_honest_msgs_total", "Honest protocol messages across all tenants."),
		faultyMsgs:  r.Counter("ssbyz_multi_faulty_msgs_total", "Adversarial messages across all tenants."),
		honestBytes: r.Counter("ssbyz_multi_honest_bytes_total", "Honest wire bytes across all tenants (CountBytes runs)."),
		tenants:     r.Gauge("ssbyz_multi_tenants", "Resident tenant instances."),
		converged:   r.Gauge("ssbyz_multi_converged_tenants", "Tenants whose convergence hold window has completed."),
		violations:  r.Gauge("ssbyz_multi_closure_violations", "Closure violations observed across tenants this measurement."),
	}
}

func (mm *multiMetrics) flush(m *Engine) {
	if mm == nil {
		return
	}
	mm.beats.Inc()
	mm.tenantBeats.Add(uint64(len(m.tenants)))
	hm, fm, hb := m.HonestMsgs(), m.FaultyMsgs(), m.HonestBytes()
	mm.honestMsgs.Add(hm - mm.lastHonestMsgs)
	mm.lastHonestMsgs = hm
	mm.faultyMsgs.Add(fm - mm.lastFaultyMsgs)
	mm.lastFaultyMsgs = fm
	mm.honestBytes.Add(hb - mm.lastHonestBytes)
	mm.lastHonestBytes = hb
}

// Engine steps T tenant clusters in lockstep. Create with New, then
// Step/Run; per-tenant inspection goes through Tenant.
type Engine struct {
	tenants []*sim.Engine
	n       int // nodes per tenant
	sched   *sim.Scheduler

	// pools[g] is worker group g's pool (nil when pooling is off),
	// shared by every node of every tenant the group owns: a group runs
	// its tenants strictly sequentially through the beat, so the pool
	// sees the whole chunk's leases in compose and deliver order and one
	// Recycle per chunk ends exactly them. Compared to a pool per
	// (tenant, node) unit this removes T·n Node structs and their lease
	// lists from the resident set.
	pools []*pool.Node
	// groupPools[g] is the n-slot Pools slice every tenant of group g
	// shares (each slot the group pool), handed to sim.New verbatim.
	groupPools [][]*pool.Node
	groups     int
	// stepFn is stepGroup as ForEach's per-index function, bound once
	// in New so a Step allocates nothing.
	stepFn func(ws *sim.WorkerScratch, g int)
	// chunk is the cache-residency grain: tenants stepped back-to-back
	// through all beat phases before the worker moves to the next chunk.
	chunk int
	beat  uint64
	met   *multiMetrics
}

// cacheChunkUnits sizes the per-worker tenant chunk: small enough that
// the chunk's full protocol state still fits the fast cache levels, so
// the exchange/deliver phases re-read what the compose phase just wrote
// instead of missing to DRAM. 128 units at the seed-machine state sizes
// lands in the low megabytes.
const cacheChunkUnits = 128

// TenantConfig returns the config tenant t would run standalone — the
// oracle side of the differential harness.
func TenantConfig(cfg Config, t int) sim.Config {
	c := cfg.Node
	if cfg.NodeFor != nil {
		c = cfg.NodeFor(t)
	} else {
		c.Seed += int64(t)
	}
	c.Workers = 1
	c.Pools = nil
	c.Metrics = nil // tenants run detached; the multi engine aggregates
	return c
}

// New builds the multiplexed engine. Panics on malformed configs, like
// sim.New.
func New(cfg Config, factory sim.NodeFactory) *Engine {
	if cfg.Tenants <= 0 {
		panic(fmt.Sprintf("multi: bad tenant count %d", cfg.Tenants))
	}
	first := TenantConfig(cfg, 0)
	n := first.N
	T := cfg.Tenants
	m := &Engine{
		tenants: make([]*sim.Engine, T),
		n:       n,
		sched:   sim.NewScheduler(cfg.Workers),
		met:     newMultiMetrics(cfg.Metrics),
	}
	if m.met != nil {
		m.met.tenants.Set(int64(T))
	}
	pooled, poison := sim.ResolvePoolMode(first.Pool)
	m.chunk = cacheChunkUnits / n
	if m.chunk < 1 {
		m.chunk = 1
	}
	// Whole tenants are assigned to worker groups (WorkerFor over T),
	// so a group can run its tenants' full beats without cross-group
	// barriers; groups beyond the tenant count would sit idle.
	m.groups = min(m.sched.Workers(), T)
	m.stepFn = func(_ *sim.WorkerScratch, g int) { m.stepGroup(g) }
	if pooled {
		m.pools = make([]*pool.Node, m.groups)
		m.groupPools = make([][]*pool.Node, m.groups)
		for g := range m.pools {
			m.pools[g] = &pool.Node{}
			m.pools[g].SetPoison(poison)
			ps := make([]*pool.Node, n)
			for i := range ps {
				ps[i] = m.pools[g]
			}
			m.groupPools[g] = ps
		}
	}
	for t := 0; t < T; t++ {
		c := TenantConfig(cfg, t)
		if c.N != n {
			panic(fmt.Sprintf("multi: tenant %d has n=%d, tenant 0 has n=%d", t, c.N, n))
		}
		if pooled {
			c.Pools = m.groupPools[m.sched.WorkerFor(T, t)]
		}
		m.tenants[t] = sim.New(c, factory)
	}
	return m
}

// Tenants returns T.
func (m *Engine) Tenants() int { return len(m.tenants) }

// N returns the per-tenant cluster size.
func (m *Engine) N() int { return m.n }

// Beat returns the number of completed beats.
func (m *Engine) Beat() uint64 { return m.beat }

// Tenant returns tenant t's engine for inspection (clocks, metrics,
// phantom injection). Stepping it directly would desynchronize the
// lockstep; use Step on the multi engine.
func (m *Engine) Tenant(t int) *sim.Engine { return m.tenants[t] }

// Step executes one beat for every tenant: one fan-out over worker
// groups, each group walking its contiguous tenant block in
// cache-sized chunks. Per chunk: compose every node, then the
// per-tenant exchange, deliver, pool-recycle and beat-finish passes. Within a tenant the phase ordering of
// sim.Engine.Step holds unchanged; across tenants there is nothing to
// order.
func (m *Engine) Step() {
	m.sched.ForEach(m.groups, m.stepFn)
	m.beat++
	m.met.flush(m)
}

// stepGroup runs one beat for worker group g's tenant block. ForEach
// over the group count maps index g to exactly one invocation per
// fan-out, so the group's pool is touched by one goroutine at a time,
// with ForEach's return ordering accesses across beats.
func (m *Engine) stepGroup(g int) {
	T, n := len(m.tenants), m.n
	block := (T + m.groups - 1) / m.groups // mirrors Scheduler.WorkerFor(T, ·)
	t0 := g * block
	t1 := t0 + block
	if t1 > T {
		t1 = T
	}
	for c0 := t0; c0 < t1; c0 += m.chunk {
		c1 := c0 + m.chunk
		if c1 > t1 {
			c1 = t1
		}
		for t := c0; t < c1; t++ {
			e := m.tenants[t]
			for i := 0; i < n; i++ {
				e.ComposeNode(i)
			}
		}
		for t := c0; t < c1; t++ {
			m.tenants[t].ExchangePhase()
		}
		for t := c0; t < c1; t++ {
			e := m.tenants[t]
			for i := 0; i < n; i++ {
				e.DeliverNode(i)
			}
		}
		if m.pools != nil {
			m.pools[g].Recycle()
		}
		for t := c0; t < c1; t++ {
			m.tenants[t].FinishBeat()
		}
	}
}

// Run executes the given number of beats.
func (m *Engine) Run(beats int) {
	for i := 0; i < beats; i++ {
		m.Step()
	}
}

// ScrambleHonest scrambles every tenant's honest nodes (each tenant
// uses its own scramble stream, exactly as standalone).
func (m *Engine) ScrambleHonest() {
	for _, e := range m.tenants {
		e.ScrambleHonest()
	}
}

// HonestMsgs sums the tenants' cumulative honest message counts.
func (m *Engine) HonestMsgs() uint64 {
	var s uint64
	for _, e := range m.tenants {
		s += e.HonestMsgs
	}
	return s
}

// FaultyMsgs sums the tenants' cumulative adversarial message counts.
func (m *Engine) FaultyMsgs() uint64 {
	var s uint64
	for _, e := range m.tenants {
		s += e.FaultyMsgs
	}
	return s
}

// HonestBytes sums the tenants' cumulative honest wire bytes (only
// tallied when the tenant configs set CountBytes).
func (m *Engine) HonestBytes() uint64 {
	var s uint64
	for _, e := range m.tenants {
		s += e.HonestBytes
	}
	return s
}
