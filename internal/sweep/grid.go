// Package sweep shards an experiment grid into deterministic work units,
// executes them across worker processes (or in-process shards), and
// accumulates results in an on-disk columnar store. It is the scale-out
// layer over internal/sim: the paper's claims (expected-constant
// convergence, self-stabilization, f < n/3 resilience) are statistical,
// so validating them needs large seed counts, large n and a grid of
// adversaries and layouts — more work than one in-process loop can hold.
//
// The determinism contract mirrors sim.Scheduler's: a unit's result
// depends only on the grid and the unit index (every run derives all
// randomness from the unit's seed), so the merged store is byte-identical
// regardless of shard count, process count or completion order.
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"ssbyzclock/internal/adversary"
	"ssbyzclock/internal/baseline"
	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/faultnet"
	"ssbyzclock/internal/proto"
)

// Grid describes one experiment sweep: the cross product of cluster
// sizes, adversaries, coin layouts and seeds, all run under one protocol
// stack and measurement budget. The zero value is invalid; fill every
// field (Validate reports what is missing). Grids serialize to JSON for
// cmd/sweep grid files and the store manifest.
type Grid struct {
	// Protocol names the stack under test, a key of Protocols.
	Protocol string `json:"protocol"`
	// Coin selects the common-coin construction, a key of
	// coin.Factories ("fm", no trusted setup; "rabin", a trusted dealer
	// seeded per unit; "local", not common).
	Coin string `json:"coin"`
	// K is the clock modulus; protocols with a FixedK ignore it.
	K uint64 `json:"k,omitempty"`
	// Ns lists cluster sizes; each runs with f = floor((n-1)/3).
	Ns []int `json:"ns"`
	// Adversaries lists adversary names, keys of adversary.Registry.
	Adversaries []string `json:"adversaries"`
	// Layouts lists coin layouts: "shared" and/or "paper".
	Layouts []string `json:"layouts"`
	// Faults lists transport-fault schedule names (faultnet.Parse
	// syntax: "none", "loss20", "dup10+delay15", ...), making network
	// adversaries a grid dimension alongside Byzantine ones. Empty means
	// the single ideal schedule "none" — omitted from JSON so legacy
	// grids keep their Hash. Each unit's schedule is seeded from the
	// unit's own engine seed, so faulted units replay bit-for-bit like
	// any other.
	Faults []string `json:"faults,omitempty"`
	// Nets lists execution substrates: "engine" (the in-process
	// sim/multi engine, the default), "udp" or "tcp" (a Lockstep
	// noderuntime cluster over real loopback sockets, multiplexing
	// Tenants instances behind n endpoints with tenant-batched frames).
	// Lockstep networked runs replay the engine byte-identically (the
	// differential harness's Lockstep cells), so a networked cell measures
	// the same convergence distribution as its engine twin — the grid
	// dimension exists to demonstrate that over real sockets and real
	// fault injection, not to change the numbers. Empty means just
	// "engine" — omitted from JSON so legacy grids keep their Hash.
	Nets []string `json:"nets,omitempty"`
	// Tenants multiplexes each unit: when > 1, the unit runs Tenants
	// independent instances (tenant t seeded with the unit seed + t)
	// lockstep on one internal/multi engine and records aggregate
	// metrics — Converged requires every tenant, ConvBeats is the
	// slowest tenant's, ClosureViolations sum, and traffic averages
	// over all tenants' honest node-beats. 0 or 1 is a plain
	// single-instance run — omitted from JSON so legacy grids keep
	// their Hash. Multiplexing is a throughput layout, not a semantic
	// change: each tenant replays byte-identically to its standalone
	// run, so a tenants > 1 grid measures the same distribution as
	// Seeds-many singles, one engine at a time.
	Tenants int `json:"tenants,omitempty"`
	// Seeds is the number of independent seeds per (n, adversary,
	// layout, fault) cell.
	Seeds int `json:"seeds"`
	// SeedBase offsets every unit's engine seed, so disjoint sweeps can
	// draw disjoint randomness. Unit seed = SeedBase + 7*seedIndex + 1,
	// matching the in-process experiments' seeding.
	SeedBase int64 `json:"seed_base,omitempty"`
	// MaxBeats caps each run; unconverged runs record MaxBeats as their
	// convergence time (a lower bound on truth), as the in-process
	// experiments do.
	MaxBeats int `json:"max_beats"`
	// Hold is the consecutive-synced-beats requirement for declaring
	// convergence.
	Hold int `json:"hold"`
}

// Unit is one work item: a single measured run at a fixed grid cell and
// seed. Units are identified by their dense Index in the grid's
// row-major enumeration (n outermost, then adversary, layout, fault,
// net, seed), so a unit index plus the grid fully determines the run.
type Unit struct {
	Index     int
	N, F      int
	Adversary string
	Layout    string
	Fault     string
	Net       string
	SeedIdx   int
}

// Seed returns the engine seed for the unit under g.
func (u Unit) Seed(g Grid) int64 { return g.SeedBase + int64(u.SeedIdx)*7 + 1 }

// faultList returns the fault dimension, defaulting the empty slice to
// the single ideal schedule.
func (g Grid) faultList() []string {
	if len(g.Faults) == 0 {
		return []string{"none"}
	}
	return g.Faults
}

// netList returns the substrate dimension, defaulting the empty slice
// to the in-process engine.
func (g Grid) netList() []string {
	if len(g.Nets) == 0 {
		return []string{"engine"}
	}
	return g.Nets
}

// Protocol is one entry of the protocol table: how to build the node
// factory, and the clock modulus the protocol is measured at.
type Protocol struct {
	// New builds the node factory for clock modulus k, coin cf and coin
	// layout l; a protocol without a coin or a layout ignores them.
	New func(k uint64, cf coin.Factory, l core.Layout) func(proto.Env) proto.Protocol
	// FixedK is the modulus the protocol runs at whatever k is asked for
	// (2-clock, 4-clock), or 0 when it runs at k.
	FixedK uint64
}

// K returns the modulus the protocol runs at when asked for k.
func (p Protocol) K(k uint64) uint64 {
	if p.FixedK != 0 {
		return p.FixedK
	}
	return k
}

// Protocols is the one table of protocol names: grids, cmd/clocksim and
// the experiments resolve a name here. "clocksyncstale" is the Remark
// 3.1 stale-rand ablation of "clocksync"; the last three are the Table 1
// baselines, which take neither coin nor layout.
var Protocols = map[string]Protocol{
	"clocksync":      {New: core.NewClockSyncProtocolLayout},
	"clocksyncstale": {New: core.NewClockSyncStaleProtocolLayout},
	"twoclock": {FixedK: 2, New: func(_ uint64, cf coin.Factory, l core.Layout) func(proto.Env) proto.Protocol {
		return core.NewTwoClockProtocolLayout(cf, l)
	}},
	"fourclock": {FixedK: 4, New: func(_ uint64, cf coin.Factory, l core.Layout) func(proto.Env) proto.Protocol {
		return core.NewFourClockProtocolLayout(cf, l)
	}},
	"dolevwelch": {New: func(k uint64, _ coin.Factory, _ core.Layout) func(proto.Env) proto.Protocol {
		return baseline.NewDolevWelchProtocol(k)
	}},
	"phaseking": {New: func(k uint64, _ coin.Factory, _ core.Layout) func(proto.Env) proto.Protocol {
		return baseline.NewPhaseKingProtocol(k)
	}},
	"naive": {New: func(k uint64, _ coin.Factory, _ core.Layout) func(proto.Env) proto.Protocol {
		return baseline.NewNaiveProtocol(k)
	}},
}

// LookupProtocol returns the named protocol's table entry.
func LookupProtocol(name string) (Protocol, error) {
	p, ok := Protocols[name]
	if !ok {
		names := make([]string, 0, len(Protocols))
		for k := range Protocols {
			names = append(names, k)
		}
		sort.Strings(names)
		return Protocol{}, fmt.Errorf("unknown protocol %q (known: %s)", name, strings.Join(names, " "))
	}
	return p, nil
}

// protocolK returns the effective clock modulus measured for g.
func (g Grid) protocolK() uint64 { return Protocols[g.Protocol].K(g.K) }

// Validate reports the first problem with the grid, or nil.
func (g Grid) Validate() error {
	if _, err := LookupProtocol(g.Protocol); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	if g.protocolK() < 2 {
		return fmt.Errorf("sweep: %s needs k >= 2, got %d", g.Protocol, g.K)
	}
	if _, err := coin.Lookup(g.Coin, 0); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	if len(g.Ns) == 0 {
		return fmt.Errorf("sweep: grid has no cluster sizes")
	}
	for _, n := range g.Ns {
		if n < 2 {
			return fmt.Errorf("sweep: bad cluster size %d", n)
		}
	}
	if len(g.Adversaries) == 0 {
		return fmt.Errorf("sweep: grid has no adversaries")
	}
	for _, a := range g.Adversaries {
		if _, err := adversary.Lookup(a); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	if len(g.Layouts) == 0 {
		return fmt.Errorf("sweep: grid has no layouts")
	}
	for _, l := range g.Layouts {
		if l != "shared" && l != "paper" {
			return fmt.Errorf("sweep: unknown layout %q (want shared or paper)", l)
		}
	}
	for _, name := range g.faultList() {
		if _, err := faultnet.Parse(name); err != nil {
			return fmt.Errorf("sweep: bad fault schedule %q: %w", name, err)
		}
	}
	for _, nt := range g.netList() {
		if nt != "engine" && nt != "udp" && nt != "tcp" {
			return fmt.Errorf("sweep: unknown net %q (want engine, udp or tcp)", nt)
		}
	}
	if g.Tenants < 0 {
		return fmt.Errorf("sweep: grid needs tenants >= 0, got %d", g.Tenants)
	}
	if g.Seeds <= 0 {
		return fmt.Errorf("sweep: grid needs seeds > 0")
	}
	if g.MaxBeats <= 0 {
		return fmt.Errorf("sweep: grid needs max_beats > 0")
	}
	if g.Hold <= 0 {
		return fmt.Errorf("sweep: grid needs hold > 0")
	}
	return nil
}

// Units returns the total unit count.
func (g Grid) Units() int {
	return len(g.Ns) * len(g.Adversaries) * len(g.Layouts) * len(g.faultList()) * len(g.netList()) * g.Seeds
}

// UnitAt expands unit index idx into its coordinates. It panics on an
// out-of-range index: indexes come from the store's own enumeration, not
// external input.
func (g Grid) UnitAt(idx int) Unit {
	if idx < 0 || idx >= g.Units() {
		panic(fmt.Sprintf("sweep: unit index %d out of range [0,%d)", idx, g.Units()))
	}
	faults := g.faultList()
	nets := g.netList()
	rest := idx
	seed := rest % g.Seeds
	rest /= g.Seeds
	nt := rest % len(nets)
	rest /= len(nets)
	fault := rest % len(faults)
	rest /= len(faults)
	layout := rest % len(g.Layouts)
	rest /= len(g.Layouts)
	adv := rest % len(g.Adversaries)
	rest /= len(g.Adversaries)
	n := g.Ns[rest]
	return Unit{
		Index:     idx,
		N:         n,
		F:         (n - 1) / 3,
		Adversary: g.Adversaries[adv],
		Layout:    g.Layouts[layout],
		Fault:     faults[fault],
		Net:       nets[nt],
		SeedIdx:   seed,
	}
}

// Hash returns a hex digest of the canonical grid encoding. The store
// manifest records it so a resumed sweep cannot silently mix results
// from different grids.
func (g Grid) Hash() string {
	b, err := json.Marshal(g)
	if err != nil {
		panic("sweep: grid not marshalable: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
