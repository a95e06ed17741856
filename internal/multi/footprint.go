package multi

import (
	"runtime"

	"ssbyzclock/internal/obs"
	"ssbyzclock/internal/sim"
)

// Footprint is one resident-memory measurement of a multiplexed engine:
// the heap the engine (and everything reachable from it) holds at
// steady state, expressed per tenant. It is a RESIDENT measurement —
// live bytes after a full GC, not allocation throughput — so it answers
// the service-capacity question B/op cannot: how many tenants fit in
// this machine's memory.
type Footprint struct {
	// Tenants is T, the number of resident instances measured.
	Tenants int
	// N is the per-tenant cluster size.
	N int
	// BaselineBytes is the live heap before the engine was built.
	BaselineBytes uint64
	// ResidentBytes is the live-heap delta attributable to the engine at
	// steady state (after WarmBeats beats and a forced GC).
	ResidentBytes uint64
	// BytesPerTenant is ResidentBytes / Tenants.
	BytesPerTenant float64
	// WarmBeats is how many beats ran before the steady-state reading.
	WarmBeats int
}

// LiveHeap forces a full collection and returns the live heap size.
// Two GC cycles settle finalizer-revived and process-pool-cached memory so
// back-to-back measurements are comparable. Exported for harnesses
// (sweep's resident column) that build the engine themselves and
// bracket its lifetime with their own readings.
func LiveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// MeasureFootprint builds a multiplexed engine from cfg, steps it
// warmBeats beats so every lazily allocated path (group pools, scratch
// buffers, pipeline slots) has reached steady state, and returns the
// live-heap delta per tenant. The engine is released before returning —
// the measurement is of residency, not a handle.
//
// The reading is a process-global heap delta, so callers should run it
// in a quiet process (the footprint test and BenchmarkResidentTenants
// do); a few KB of unrelated allocation noise is irrelevant at T >= 1e3.
func MeasureFootprint(cfg Config, factory sim.NodeFactory, warmBeats int) Footprint {
	before := LiveHeap()
	m := New(cfg, factory)
	m.Run(warmBeats)
	after := LiveHeap()
	fp := Footprint{
		Tenants:       m.Tenants(),
		N:             m.N(),
		BaselineBytes: before,
		WarmBeats:     warmBeats,
	}
	if after > before {
		fp.ResidentBytes = after - before
	}
	fp.BytesPerTenant = float64(fp.ResidentBytes) / float64(fp.Tenants)
	runtime.KeepAlive(m)
	return fp
}

// RegisterFootprint exports a footprint reading on r as Func gauges —
// ssbyz_multi_resident_tenants and ssbyz_multi_bytes_per_tenant —
// resolved at snapshot time from fp. fp runs on every scrape, so it
// should return a cached reading (measure with MeasureFootprint on the
// harness's own cadence, not the scraper's: a measurement forces full
// GCs). A nil registry registers nothing and costs nothing, matching
// the package-wide nil-metrics invariant.
func RegisterFootprint(r *obs.Registry, fp func() Footprint) {
	if r == nil {
		return
	}
	r.Func("ssbyz_multi_resident_tenants",
		"Tenant instances resident in the last footprint measurement.",
		obs.KindGauge, func() float64 { return float64(fp().Tenants) })
	r.Func("ssbyz_multi_bytes_per_tenant",
		"Resident heap bytes per tenant in the last footprint measurement.",
		obs.KindGauge, func() float64 { return fp().BytesPerTenant })
}
