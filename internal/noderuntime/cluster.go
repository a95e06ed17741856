package noderuntime

import (
	"fmt"
	"sync/atomic"
	"time"

	"ssbyzclock/internal/adversary"
	"ssbyzclock/internal/faultnet"
	"ssbyzclock/internal/net"
	"ssbyzclock/internal/obs"
	"ssbyzclock/internal/pool"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/sim"
)

// ClusterConfig mirrors sim.Config for the networked runtime: same
// seed-derived randomness (sim.NodeRng and friends), same faulty-id
// defaults, same scramble discipline, so a Lockstep cluster is the
// engine's run rehosted on a wire.
//
// A cluster hosts Tenants independent protocol instances per node id
// behind its n endpoints. Tenant t is seeded Seed+t (node, adversary
// and scramble streams alike, multi.TenantConfig's derivation), so its
// standalone oracle is an ordinary sim.Engine at that seed. Everything
// below the protocol instances is shared BY CONSTRUCTION: one endpoint,
// one pool and one event loop per node id, one link-beat frame carrying
// every tenant's messages. faultnet verdicts are pure functions of
// (seed, beat, from, to) and a frame is one such sample, so every
// tenant on a link shares the frame's fate — exactly what T standalone
// runs under the same schedule seed would each compute for themselves
// (the differential harness pins this per tenant) — and crash/restart,
// the loss override and Real mode reach all tenants alike.
type ClusterConfig struct {
	N, F int
	// Tenants is the number of instances per node id; 0 means 1.
	Tenants int
	// Seed is tenant 0's seed; tenant t uses Seed+t.
	Seed int64
	// Faulty lists the adversary-controlled ids; empty means the last F.
	Faulty []int
	Mode   Mode
	// Factory builds each (tenant, node) protocol instance (honest
	// copies included), exactly as sim.New does.
	Factory sim.NodeFactory
	// NewAdversary builds each tenant's adversary (Lockstep only; nil
	// means Passive). Real mode runs faulty ids as ordinary nodes.
	NewAdversary func(ctx *adversary.Context) adversary.Adversary
	// ScrambleStart scrambles every tenant's honest nodes before the
	// first beat, from that tenant's own scramble stream, as sim does.
	ScrambleStart bool
	// Pool selects payload pooling, as sim.Config.Pool.
	Pool sim.PoolMode
	// Links is the fault schedule; honest endpoints are wrapped with it
	// (its Seed should already be set). Nil means an ideal network.
	Links faultnet.Schedule
	// AttemptLossPct and MaxLatency feed the faultnet wrapper in Real
	// mode (per-attempt loss that retries can beat, and random delivery
	// latency). Ignored in Lockstep, which has no retries.
	AttemptLossPct int
	MaxLatency     time.Duration
	// Transport carries the cluster; nil selects an in-process channel
	// transport.
	Transport net.Transport
	// OnBeat observes each honest node's instance (every tenant's, in
	// tenant order) after every delivered beat, from that node's
	// goroutine. OnTenantBeat is the same hook with the tenant index.
	OnBeat       func(id int, beat uint64, p proto.Protocol)
	OnTenantBeat func(tenant, id int, beat uint64, p proto.Protocol)
	MaxBeats     uint64
	Timing       Timing
	// Metrics, when non-nil, instruments every honest node and wrapped
	// endpoint (per-node labels). Restart re-registers the same series,
	// so counters accumulate across a node's incarnations.
	Metrics *obs.Registry
}

// Cluster is a running set of event-loop nodes (plus the adversary host
// in Lockstep mode) over one transport.
type Cluster struct {
	cfg    ClusterConfig
	tr     net.Transport
	isBad  []bool
	faulty []int
	nodes  []*Node              // by id; nil for adversary-hosted ids
	eps    []*faultnet.Endpoint // honest wrapped endpoints, by id
	adv    *AdvHost
	// lossOverride is the last SetAttemptLossPct value (-1 = none), so
	// restarted endpoints inherit the live setting, not the config one.
	lossOverride atomic.Int32
}

// NewCluster builds the cluster: T×n protocol instances from each
// tenant's exact engine streams, endpoints attached and wrapped once
// per node id, honest state scrambled per tenant in engine order. Call
// Start to run it.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.N <= 0 || cfg.F < 0 || cfg.F >= cfg.N {
		return nil, fmt.Errorf("noderuntime: bad cluster n=%d f=%d", cfg.N, cfg.F)
	}
	if cfg.Tenants < 0 {
		return nil, fmt.Errorf("noderuntime: bad tenant count %d", cfg.Tenants)
	}
	cfg.Tenants = max(cfg.Tenants, 1)
	c := &Cluster{cfg: cfg, tr: cfg.Transport}
	c.lossOverride.Store(-1)
	if c.tr == nil {
		c.tr = net.NewChanTransport(cfg.N, 0)
	}
	c.faulty = append([]int(nil), cfg.Faulty...)
	if len(c.faulty) == 0 {
		for i := cfg.N - cfg.F; i < cfg.N; i++ {
			c.faulty = append(c.faulty, i)
		}
	}
	if len(c.faulty) != cfg.F {
		return nil, fmt.Errorf("noderuntime: %d faulty ids for f=%d", len(c.faulty), cfg.F)
	}
	c.isBad = make([]bool, cfg.N)
	for _, id := range c.faulty {
		if id < 0 || id >= cfg.N {
			return nil, fmt.Errorf("noderuntime: faulty id %d out of range", id)
		}
		c.isBad[id] = true
	}
	hostAdv := cfg.Mode == Lockstep && cfg.F > 0

	// One pool per node id, shared by its T tenant instances: a node's
	// tenants compose sequentially on its one goroutine, so the lease
	// discipline is unchanged, and idle tenants hold no buffers.
	pools := make([]*pool.Node, cfg.N)
	for i := range pools {
		pools[i] = c.newPool()
	}
	// instances[t][i] from tenant t's exact standalone streams.
	T := cfg.Tenants
	instances := make([][]proto.Protocol, T)
	advs := make([]adversary.Adversary, T)
	for t := range instances {
		seed := cfg.Seed + int64(t)
		instances[t] = make([]proto.Protocol, cfg.N)
		for i := range instances[t] {
			instances[t][i] = c.newInstance(seed, i, pools[i])
		}
		if cfg.ScrambleStart {
			scram := sim.ScrambleRng(seed)
			for i, inst := range instances[t] {
				if s, ok := inst.(proto.Scrambler); ok && !c.isBad[i] {
					s.Scramble(scram)
				}
			}
		}
		if hostAdv {
			advs[t] = adversary.Passive{}
			if cfg.NewAdversary != nil {
				advs[t] = cfg.NewAdversary(&adversary.Context{
					N: cfg.N, F: cfg.F,
					Faulty: append([]int(nil), c.faulty...),
					Rng:    sim.AdversaryRng(seed),
					FaultyNode: func(id int) proto.Protocol {
						if id >= 0 && id < cfg.N && c.isBad[id] {
							return instances[t][id]
						}
						return nil
					},
				})
			}
		}
	}

	c.nodes = make([]*Node, cfg.N)
	c.eps = make([]*faultnet.Endpoint, cfg.N)
	var advEps []net.Endpoint
	for i := 0; i < cfg.N; i++ {
		raw, err := c.tr.Endpoint(i)
		if err != nil {
			return nil, err
		}
		if hostAdv && c.isBad[i] {
			// Faulty nodes' outgoing links to honest destinations are
			// faulted like anyone else's (the engine does the same in
			// mergeInboxes); only links INTO the adversary are ideal, which
			// the wrapper's Exempt handles on the honest side.
			advEps = append(advEps, c.wrapEndpoint(raw))
			continue
		}
		c.eps[i] = c.wrapEndpoint(raw)
		protos := make([]proto.Protocol, T)
		for t := range protos {
			protos[t] = instances[t][i]
		}
		c.nodes[i] = c.newNode(i, protos, pools[i])
	}
	if hostAdv {
		advInst := make([][]proto.Protocol, T)
		advPools := make([]*pool.Node, 0, cfg.F)
		for _, id := range c.faulty {
			advPools = append(advPools, pools[id])
			for t := range advInst {
				advInst[t] = append(advInst[t], instances[t][id])
			}
		}
		c.adv = NewAdvHost(AdvHostConfig{
			N: cfg.N, F: cfg.F, Tenants: T, FaultyIDs: c.faulty,
			Endpoints: advEps, Instances: advInst, Pools: advPools,
			Advs: advs, MaxBeats: cfg.MaxBeats,
		})
	}
	return c, nil
}

// newPool returns a node id's lease pool per the Pool mode (nil when
// pooling is off).
func (c *Cluster) newPool() *pool.Node {
	pooled, poison := sim.ResolvePoolMode(c.cfg.Pool)
	if !pooled {
		return nil
	}
	pl := &pool.Node{}
	pl.SetPoison(poison)
	return pl
}

// newInstance builds node id's protocol instance from seed's node
// stream, leasing from pl.
func (c *Cluster) newInstance(seed int64, id int, pl *pool.Node) proto.Protocol {
	return c.cfg.Factory(proto.Env{N: c.cfg.N, F: c.cfg.F, ID: id, Rng: sim.NodeRng(seed, id), Pool: pl})
}

func (c *Cluster) wrapEndpoint(raw net.Endpoint) *faultnet.Endpoint {
	wc := faultnet.WrapConfig{AttemptSeed: uint64(c.cfg.Seed)}
	if c.cfg.Metrics != nil {
		wc.Metrics = faultnet.NewEndpointMetrics(c.cfg.Metrics, raw.ID())
	}
	if c.cfg.Mode == Lockstep {
		// Ideal adversary channels and an unfaultable beat barrier (a
		// dropped frame still arrives, stripped of its messages): the
		// engine's assumptions, so the oracle comparison holds.
		wc.Exempt = c.isBad
	} else {
		wc.FaultMarkers = true
		wc.AttemptLossPct = c.cfg.AttemptLossPct
		wc.MaxLatency = c.cfg.MaxLatency
	}
	return faultnet.Wrap(raw, c.cfg.Links, wc)
}

// newNode builds node id's event loop around protos (one per tenant).
// OnBeat and OnTenantBeat both hang off the node's one hook.
func (c *Cluster) newNode(id int, protos []proto.Protocol, pl *pool.Node) *Node {
	var onBeat func(int, uint64, proto.Protocol)
	if on, onT := c.cfg.OnBeat, c.cfg.OnTenantBeat; on != nil || onT != nil {
		onBeat = func(tenant int, beat uint64, p proto.Protocol) {
			if on != nil {
				on(id, beat, p)
			}
			if onT != nil {
				onT(tenant, id, beat, p)
			}
		}
	}
	return NewNode(NodeConfig{
		N: c.cfg.N, F: c.cfg.F, ID: id,
		Faulty: append([]bool(nil), c.isBad...), Mode: c.cfg.Mode,
		Endpoint: c.eps[id], Links: c.cfg.Links,
		Protocols: protos, Pool: pl,
		OnBeat: onBeat, MaxBeats: c.cfg.MaxBeats,
		Timing: c.cfg.Timing, RetrySeed: c.cfg.Seed,
		Metrics: NewNodeMetrics(c.cfg.Metrics, id),
	})
}

// Start launches every node (and the adversary host).
func (c *Cluster) Start() {
	for _, nd := range c.nodes {
		if nd != nil {
			nd.Start()
		}
	}
	if c.adv != nil {
		c.adv.Start()
	}
}

// Stop asks everything to exit and joins it.
func (c *Cluster) Stop() {
	for _, nd := range c.nodes {
		if nd != nil {
			nd.Stop()
		}
	}
	if c.adv != nil {
		c.adv.Stop()
	}
	c.Wait()
	for _, ep := range c.eps {
		if ep != nil {
			ep.Close()
		}
	}
	c.tr.Close()
}

// Wait joins every loop; with MaxBeats set this is the natural way to
// let a bounded run finish.
func (c *Cluster) Wait() {
	for _, nd := range c.nodes {
		if nd != nil {
			nd.Wait()
		}
	}
	if c.adv != nil {
		c.adv.Wait()
	}
}

// Node returns node id's event loop (nil for adversary-hosted ids).
func (c *Cluster) Node(id int) *Node { return c.nodes[id] }

// HonestIDs returns the non-faulty ids in ascending order.
func (c *Cluster) HonestIDs() []int {
	out := make([]int, 0, c.cfg.N-c.cfg.F)
	for i := 0; i < c.cfg.N; i++ {
		if !c.isBad[i] {
			out = append(out, i)
		}
	}
	return out
}

// Stats sums the injected-fault counters across honest endpoints.
func (c *Cluster) Stats() faultnet.Stats {
	var s faultnet.Stats
	for _, ep := range c.eps {
		if ep == nil {
			continue
		}
		st := ep.Stats()
		s.Dropped += st.Dropped
		s.Duplicated += st.Duplicated
		s.Delayed += st.Delayed
		s.AttemptLost += st.AttemptLost
	}
	return s
}

// SetAttemptLossPct retargets every honest endpoint's per-attempt loss
// rate live — the soak harness's loss lever. Safe mid-run.
func (c *Cluster) SetAttemptLossPct(pct int) {
	c.lossOverride.Store(int32(pct))
	for _, ep := range c.eps {
		if ep != nil {
			ep.SetAttemptLossPct(pct)
		}
	}
}

// Crash kills node id mid-run (Real mode): its loop stops and its
// endpoint detaches, so in-flight traffic to it is dropped like any
// crashed process's.
func (c *Cluster) Crash(id int) error {
	nd := c.nodes[id]
	if nd == nil {
		return fmt.Errorf("noderuntime: node %d is adversary-hosted", id)
	}
	nd.Stop()
	nd.Wait()
	return c.eps[id].Close()
}

// Restart revives a crashed node with fresh, scrambled protocol
// instances (every tenant's) — a rebooted process recovering arbitrary
// state, which is precisely the self-stabilization setting. The node
// restarts at beat zero and catches up to the quorum via the beat jump.
func (c *Cluster) Restart(id int) error {
	if c.nodes[id] == nil {
		return fmt.Errorf("noderuntime: node %d is adversary-hosted", id)
	}
	raw, err := c.tr.Endpoint(id)
	if err != nil {
		return err
	}
	c.eps[id] = c.wrapEndpoint(raw)
	if pct := c.lossOverride.Load(); pct >= 0 {
		c.eps[id].SetAttemptLossPct(int(pct))
	}
	pl := c.newPool()
	protos := make([]proto.Protocol, c.cfg.Tenants)
	for t := range protos {
		seed := c.cfg.Seed + int64(t)
		protos[t] = c.newInstance(seed^0x517cc1b7, id, pl)
		if s, ok := protos[t].(proto.Scrambler); ok {
			s.Scramble(sim.ScrambleRng(seed ^ int64(id)<<8))
		}
	}
	c.nodes[id] = c.newNode(id, protos, pl)
	c.nodes[id].Start()
	return nil
}
