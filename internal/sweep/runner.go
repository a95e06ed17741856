package sweep

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"ssbyzclock/internal/adversary"
	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/faultnet"
	"ssbyzclock/internal/multi"
	"ssbyzclock/internal/net"
	"ssbyzclock/internal/noderuntime"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/sim"
)

// Result is one unit's measured metrics, in the store's column order.
type Result struct {
	// Converged reports whether the run settled within MaxBeats.
	Converged bool
	// ConvBeats is the convergence beat, or MaxBeats when unconverged
	// (the in-process experiments' convention, a lower bound on truth).
	ConvBeats int
	// ClosureViolations counts beats at which a converged system lost
	// synchronization again (Definition 3.2's closure; 0 for a correct
	// protocol).
	ClosureViolations int
	// MsgsPerNodeBeat and BytesPerNodeBeat are honest traffic divided by
	// (n-f) honest nodes times executed beats. Networked units record 0:
	// their frames are tenant-batched per link, so the engine's
	// per-message counters have no wire counterpart there.
	MsgsPerNodeBeat  float64
	BytesPerNodeBeat float64
	// ResidentBytesPerTenant is the steady-state live-heap delta per
	// tenant for engine multitenant units (tenants > 1, net "engine"):
	// the service-capacity number the multitenant grid aggregates. 0 for
	// single-instance and networked units. It includes each worker
	// group's pool and scratch, a fixed cost per worker, so at small
	// tenant counts it reads higher with more Runner.Workers.
	ResidentBytesPerTenant float64
}

// encode packs the result into the store's fixed-width row (column
// order must match Metrics).
func (r Result) encode() [numMetrics]uint64 {
	var row [numMetrics]uint64
	if r.Converged {
		row[0] = 1
	}
	row[1] = uint64(r.ConvBeats)
	row[2] = uint64(r.ClosureViolations)
	row[3] = math.Float64bits(r.MsgsPerNodeBeat)
	row[4] = math.Float64bits(r.BytesPerNodeBeat)
	row[5] = math.Float64bits(r.ResidentBytesPerTenant)
	return row
}

// decodeResult is encode's inverse.
func decodeResult(row [numMetrics]uint64) Result {
	return Result{
		Converged:              row[0] != 0,
		ConvBeats:              int(row[1]),
		ClosureViolations:      int(row[2]),
		MsgsPerNodeBeat:        math.Float64frombits(row[3]),
		BytesPerNodeBeat:       math.Float64frombits(row[4]),
		ResidentBytesPerTenant: math.Float64frombits(row[5]),
	}
}

// Runner executes units. The zero value is ready to use.
type Runner struct {
	// Workers is sim.Config.Workers for each unit's engine: a pure
	// throughput knob — every worker count replays byte-identically, so
	// results are unaffected. 0 selects GOMAXPROCS.
	Workers int
}

// RunUnit executes one unit of g and returns its metrics. The engine
// seed, the coin setup seed and every other random choice derive from
// the unit alone, so re-running a unit — on any shard, in any process —
// reproduces its result bit-for-bit.
func (r Runner) RunUnit(g Grid, u Unit) (Result, error) {
	layout, err := core.ParseLayout(u.Layout)
	if err != nil {
		return Result{}, err
	}
	cf, err := coin.Lookup(g.Coin, u.Seed(g))
	if err != nil {
		return Result{}, fmt.Errorf("sweep: %w", err)
	}
	p, err := LookupProtocol(g.Protocol)
	if err != nil {
		return Result{}, fmt.Errorf("sweep: %w", err)
	}
	nodeFactory := p.New(g.K, cf, layout)
	mk, err := adversary.Lookup(u.Adversary)
	if err != nil {
		return Result{}, fmt.Errorf("sweep: %w", err)
	}
	cfg := sim.Config{
		N: u.N, F: u.F, Seed: u.Seed(g),
		NewAdversary:  mk,
		ScrambleStart: true,
		CountBytes:    true,
		Workers:       r.Workers,
	}
	if u.Fault != "" && u.Fault != "none" {
		sched, err := faultnet.Parse(u.Fault)
		if err != nil {
			return Result{}, fmt.Errorf("sweep: unit %d fault %q: %w", u.Index, u.Fault, err)
		}
		// The schedule draws from the unit's own seed, so a faulted unit
		// replays bit-for-bit like an ideal one.
		sched.Seed = uint64(u.Seed(g))
		cfg.Links = sched
	}
	if u.Net != "" && u.Net != "engine" {
		return r.runNetworked(g, u, cfg, nodeFactory)
	}
	if g.Tenants > 1 {
		return r.runMultiTenant(g, u, cfg, nodeFactory)
	}
	e := sim.New(cfg, nodeFactory)
	res := sim.MeasureConvergence(e, g.protocolK(), g.MaxBeats, g.Hold)
	out := fold([]sim.ConvergenceResult{res}, g.MaxBeats)
	perNodeBeat := float64(u.N-u.F) * float64(res.Beats)
	if perNodeBeat > 0 {
		out.MsgsPerNodeBeat = float64(e.HonestMsgs) / perNodeBeat
		out.BytesPerNodeBeat = float64(e.HonestBytes) / perNodeBeat
	}
	return out, nil
}

// runMultiTenant measures the unit as g.Tenants independent instances
// multiplexed on one internal/multi engine (tenant t runs the unit
// config with Seed+t; a faulted unit's link schedule is shared, and
// pure, so tenants see the same network weather) and folds the
// per-tenant convergence results into the unit's one store row.
// The lockstep engine keeps stepping until the slowest tenant settles,
// so traffic is divided by the beats every tenant actually executed —
// honest nodes × engine beats × tenants.
func (r Runner) runMultiTenant(g Grid, u Unit, node sim.Config, factory sim.NodeFactory) (Result, error) {
	// Bracket the engine's lifetime with live-heap readings: whatever the
	// unit's run leaves resident, divided by tenants, is the
	// service-capacity column. Units run sequentially in a worker, so the
	// forced collections see only this engine's survivors on top of the
	// worker's constant baseline.
	before := multi.LiveHeap()
	m := multi.New(multi.Config{Tenants: g.Tenants, Workers: r.Workers, Node: node}, factory)
	out := fold(multi.MeasureConvergence(m, g.protocolK(), g.MaxBeats, g.Hold), g.MaxBeats)
	perNodeBeat := float64(u.N-u.F) * float64(m.Beat()) * float64(g.Tenants)
	if perNodeBeat > 0 {
		out.MsgsPerNodeBeat = float64(m.HonestMsgs()) / perNodeBeat
		out.BytesPerNodeBeat = float64(m.HonestBytes()) / perNodeBeat
	}
	if after := multi.LiveHeap(); after > before {
		out.ResidentBytesPerTenant = float64(after-before) / float64(g.Tenants)
	}
	runtime.KeepAlive(m)
	return out, nil
}

// fold combines convergence results into a unit's row: converged only
// if every tenant did, the slowest tenant's convergence beat (MaxBeats
// for an unconverged one, the lower-bound convention), closure
// violations summed.
func fold(results []sim.ConvergenceResult, maxBeats int) Result {
	out := Result{Converged: true}
	for _, res := range results {
		cb := maxBeats
		if res.Converged {
			cb = res.ConvergedAt
		} else {
			out.Converged = false
		}
		out.ConvBeats = max(out.ConvBeats, cb)
		out.ClosureViolations += res.ClosureViolations
	}
	return out
}

// runNetworked measures the unit as a Lockstep noderuntime cluster over
// real loopback sockets: tenants (min 1) instances multiplexed behind n
// event-loop endpoints exchanging tenant-batched frames, with the
// unit's fault schedule injected at the transport wrapper. Lockstep
// networked runs replay the engine byte-identically per tenant, so the
// convergence fold matches runMultiTenant's — the row demonstrates the
// same numbers surviving real sockets, real frame encoding and real
// fault injection.
func (r Runner) runNetworked(g Grid, u Unit, node sim.Config, factory sim.NodeFactory) (Result, error) {
	T := max(g.Tenants, 1)
	var tr net.Transport
	var err error
	switch u.Net {
	case "udp":
		tr, err = net.NewLoopbackUDP(u.N, 0)
	case "tcp":
		tr, err = net.NewLoopbackTCPSeeded(u.N, 0, u.Seed(g))
	default:
		return Result{}, fmt.Errorf("sweep: unknown net %q", u.Net)
	}
	if err != nil {
		return Result{}, fmt.Errorf("sweep: unit %d %s transport: %w", u.Index, u.Net, err)
	}
	// Each tenant's honest clocks are judged as its nodes report them.
	// Lockstep guarantees every honest node reports every beat below
	// MaxBeats exactly once, so each judge sees the engine's trajectory.
	honest := make([]int, u.N-u.F)
	for i := range honest {
		honest[i] = i
	}
	agree := make([]*sim.Agreement, T)
	for t := range agree {
		agree[t] = sim.NewAgreement(honest, g.protocolK(), g.Hold)
	}
	cl, err := noderuntime.NewCluster(noderuntime.ClusterConfig{
		N: u.N, F: u.F, Tenants: T,
		Seed:          node.Seed,
		Mode:          noderuntime.Lockstep,
		Factory:       factory,
		NewAdversary:  node.NewAdversary,
		ScrambleStart: true,
		Links:         node.Links,
		Transport:     tr,
		MaxBeats:      uint64(g.MaxBeats),
		OnTenantBeat: func(tenant, id int, beat uint64, p proto.Protocol) {
			agree[tenant].Report(id, beat, p)
		},
	})
	if err != nil {
		return Result{}, fmt.Errorf("sweep: unit %d: %w", u.Index, err)
	}
	cl.Start()
	cl.Wait()
	cl.Stop()
	results := make([]sim.ConvergenceResult, T)
	for t, a := range agree {
		results[t] = a.Result()
	}
	return fold(results, g.MaxBeats), nil
}

// ExecuteShard runs every not-yet-completed unit assigned to the given
// shard (unit index mod shards), in ascending index order, appending
// each result to the store as soon as it is measured — so a killed sweep
// loses at most the unit in flight, and a restart skips everything
// already recorded (by ANY prior shard layout: completion is tracked per
// unit, not per shard). maxUnits > 0 stops after that many fresh units —
// the deterministic stand-in for an interruption in tests and the CI
// smoke. Cancelling ctx is the graceful interruption: the unit in
// flight finishes and is recorded, the chunk file is flushed, and
// ExecuteShard returns the count so far with ctx's error — everything
// recorded survives for the resume. Returns the number of units
// executed.
func ExecuteShard(ctx context.Context, st *Store, shard, shards int, r Runner, maxUnits int, progress func(Unit, Result)) (int, error) {
	if shards <= 0 || shard < 0 || shard >= shards {
		return 0, fmt.Errorf("sweep: bad shard %d of %d", shard, shards)
	}
	done, _, err := st.Completed()
	if err != nil {
		return 0, err
	}
	g := st.Grid()
	w, err := st.ShardWriter(shard, shards)
	if err != nil {
		return 0, err
	}
	defer w.Close()
	ran := 0
	for idx := shard; idx < g.Units(); idx += shards {
		if done[idx] {
			continue
		}
		if maxUnits > 0 && ran >= maxUnits {
			break
		}
		if err := ctx.Err(); err != nil {
			if cerr := w.Close(); cerr != nil {
				return ran, cerr
			}
			return ran, err
		}
		u := g.UnitAt(idx)
		res, err := r.RunUnit(g, u)
		if err != nil {
			return ran, fmt.Errorf("sweep: unit %d: %w", idx, err)
		}
		if err := w.Append(idx, res.encode()); err != nil {
			return ran, err
		}
		ran++
		if progress != nil {
			progress(u, res)
		}
	}
	return ran, w.Close()
}
