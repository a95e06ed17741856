package noderuntime

import (
	"fmt"

	"ssbyzclock/internal/adversary"
	"ssbyzclock/internal/faultnet"
	"ssbyzclock/internal/net"
	"ssbyzclock/internal/obs"
	"ssbyzclock/internal/pool"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/sim"
)

// MultiClusterConfig describes a multi-tenant Lockstep cluster: T
// independent protocol instances per node id behind n endpoints, with
// per-tenant seeding that mirrors multi.TenantConfig — tenant t runs
// with Seed+t, so tenant t's standalone oracle is an ordinary
// sim.Engine (or single-tenant Cluster) at that seed.
//
// The fault schedule is shared by all tenants BY CONSTRUCTION: faultnet
// verdicts are pure functions of (seed, beat, from, to), a batch frame
// is one (from, to, beat) sample, and so every tenant on the link
// shares the frame's fate — which is exactly what T standalone runs
// under the same schedule seed would each compute for themselves. The
// differential harness pins this equivalence per tenant.
type MultiClusterConfig struct {
	N, F    int
	Tenants int
	// Seed is tenant 0's seed; tenant t uses Seed+t (multi.TenantConfig's
	// default derivation).
	Seed int64
	// Faulty lists the adversary-controlled ids; empty means the last F.
	Faulty []int
	// Factory builds each (tenant, node) protocol instance.
	Factory sim.NodeFactory
	// NewAdversary builds each tenant's adversary (nil means Passive).
	NewAdversary func(ctx *adversary.Context) adversary.Adversary
	// ScrambleStart scrambles every tenant's honest nodes from that
	// tenant's own scramble stream, as its standalone oracle does.
	ScrambleStart bool
	// Pool selects payload pooling, as sim.Config.Pool.
	Pool sim.PoolMode
	// Links is the shared fault schedule (its Seed already set); nil
	// means an ideal network.
	Links faultnet.Schedule
	// Transport carries the cluster; nil selects an in-process channel
	// transport.
	Transport net.Transport
	// OnBeat observes each (tenant, honest node) after every delivered
	// beat, from that node's goroutine.
	OnBeat   func(tenant, id int, beat uint64, p proto.Protocol)
	MaxBeats uint64
	// Metrics, when non-nil, instruments every honest node and wrapped
	// endpoint (per-node labels), including ssbyz_net_frames_total.
	Metrics *obs.Registry
}

// MultiCluster is a running multi-tenant Lockstep cluster.
type MultiCluster struct {
	cfg    MultiClusterConfig
	tr     net.Transport
	isBad  []bool
	faulty []int
	nodes  []*Node // by id; nil for adversary-hosted ids
	eps    []*faultnet.Endpoint
	adv    *AdvHost
}

// NewMultiCluster builds the cluster: T×n protocol instances from each
// tenant's exact per-node streams, endpoints attached and wrapped once
// per node id (not per tenant), honest state scrambled per tenant in
// engine order. Call Start to run it.
func NewMultiCluster(cfg MultiClusterConfig) (*MultiCluster, error) {
	if cfg.N <= 0 || cfg.F < 0 || cfg.F >= cfg.N {
		return nil, fmt.Errorf("noderuntime: bad cluster n=%d f=%d", cfg.N, cfg.F)
	}
	if cfg.Tenants <= 0 {
		return nil, fmt.Errorf("noderuntime: bad tenant count %d", cfg.Tenants)
	}
	c := &MultiCluster{cfg: cfg, tr: cfg.Transport}
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
	hostAdv := cfg.F > 0

	// One pool per transport node, shared by its T tenant instances: a
	// node's tenants compose sequentially on its one goroutine, so the
	// lease discipline is unchanged, and idle tenants hold no buffers.
	pooled, poison := sim.ResolvePoolMode(cfg.Pool)
	T := cfg.Tenants
	pools := make([]*pool.Node, cfg.N)
	var advPool *pool.Node
	if pooled {
		for i := range pools {
			pools[i] = &pool.Node{}
			pools[i].SetPoison(poison)
		}
		advPool = &pool.Node{}
		advPool.SetPoison(poison)
	}
	// instances[t][i] from tenant t's exact standalone streams.
	instances := make([][]proto.Protocol, T)
	advs := make([]adversary.Adversary, T)
	for t := 0; t < T; t++ {
		seed := cfg.Seed + int64(t)
		instances[t] = make([]proto.Protocol, cfg.N)
		for i := 0; i < cfg.N; i++ {
			env := proto.Env{N: cfg.N, F: cfg.F, ID: i, Rng: sim.NodeRng(seed, i)}
			if pooled {
				if c.isBad[i] {
					env.Pool = advPool
				} else {
					env.Pool = pools[i]
				}
			}
			instances[t][i] = cfg.Factory(env)
		}
		if cfg.ScrambleStart {
			scram := sim.ScrambleRng(seed)
			for i := 0; i < cfg.N; i++ {
				if c.isBad[i] {
					continue
				}
				if s, ok := instances[t][i].(proto.Scrambler); ok {
					s.Scramble(scram)
				}
			}
		}
		if hostAdv {
			advCtx := &adversary.Context{
				N: cfg.N, F: cfg.F,
				Faulty: append([]int(nil), c.faulty...),
				Rng:    sim.AdversaryRng(seed),
				FaultyNode: func(id int) proto.Protocol {
					if id >= 0 && id < cfg.N && c.isBad[id] {
						return instances[t][id]
					}
					return nil
				},
			}
			advs[t] = adversary.Passive{}
			if cfg.NewAdversary != nil {
				advs[t] = cfg.NewAdversary(advCtx)
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
		wc := faultnet.WrapConfig{AttemptSeed: uint64(cfg.Seed), Exempt: c.isBad}
		if cfg.Metrics != nil {
			wc.Metrics = faultnet.NewEndpointMetrics(cfg.Metrics, raw.ID())
		}
		ep := faultnet.Wrap(raw, cfg.Links, wc)
		if hostAdv && c.isBad[i] {
			advEps = append(advEps, ep)
			continue
		}
		c.eps[i] = ep
		protos := make([]proto.Protocol, T)
		for t := 0; t < T; t++ {
			protos[t] = instances[t][i]
		}
		var onBeat func(int, uint64, proto.Protocol)
		if cfg.OnBeat != nil {
			id, cb := i, cfg.OnBeat
			onBeat = func(tenant int, beat uint64, p proto.Protocol) { cb(tenant, id, beat, p) }
		}
		c.nodes[i] = NewMultiNode(MultiNodeConfig{
			N: cfg.N, F: cfg.F, ID: i,
			Faulty:   append([]bool(nil), c.isBad...),
			Endpoint: ep, Links: cfg.Links,
			Protocols: protos, Pool: pools[i],
			OnBeat: onBeat, MaxBeats: cfg.MaxBeats,
			Metrics: NewNodeMetrics(cfg.Metrics, i),
		})
	}
	if hostAdv {
		advInst := make([][]proto.Protocol, T)
		for t := 0; t < T; t++ {
			advInst[t] = make([]proto.Protocol, 0, cfg.F)
			for _, id := range c.faulty {
				advInst[t] = append(advInst[t], instances[t][id])
			}
		}
		c.adv = NewAdvHost(AdvHostConfig{
			N: cfg.N, F: cfg.F, Tenants: T, FaultyIDs: c.faulty,
			Endpoints: advEps, Instances: advInst, Advs: advs,
			Pools: []*pool.Node{advPool}, MaxBeats: cfg.MaxBeats,
		})
	}
	return c, nil
}

// Start launches every node (and the adversary host).
func (c *MultiCluster) Start() {
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
func (c *MultiCluster) Stop() {
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
func (c *MultiCluster) Wait() {
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
func (c *MultiCluster) Node(id int) *Node { return c.nodes[id] }

// HonestIDs returns the non-faulty ids in ascending order.
func (c *MultiCluster) HonestIDs() []int {
	out := make([]int, 0, c.cfg.N-c.cfg.F)
	for i := 0; i < c.cfg.N; i++ {
		if !c.isBad[i] {
			out = append(out, i)
		}
	}
	return out
}

// Stats sums the injected-fault counters across honest endpoints.
func (c *MultiCluster) Stats() faultnet.Stats {
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
