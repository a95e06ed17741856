package multi_test

import (
	"os"
	"testing"

	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/multi"
	"ssbyzclock/internal/obs"
	"ssbyzclock/internal/sim"
)

// Resident bytes/tenant gates for a warm T=1000 engine (12 warm beats):
// the readings after GVSS and coin message structs became beat leases
// from the pool, plus 10 % for allocator noise across toolchains.
// Readings on a 2-vCPU x86-64 Linux container: 30,926 B (n=4) and
// 117,456 B (n=7), down from 45,533 B and 157,280 B with message slots
// kept in every instance — so undoing that change fails both gates.
// (Earlier steps: 58,832 B and 198,597 B with row-view matrices;
// 194,279 B and 610,511 B before any footprint work.) These gates are
// the shared layout's. The paper layout runs three pipelines per node:
// its n=4 gate is its reading, 72,615 B on the same container, with the
// shared n=4 gate's headroom over its latest reading (34,019 / 29,121).
const (
	limitBytesPerTenantN4      = 34_019
	limitBytesPerTenantN7      = 129_202
	limitBytesPerTenantN4Paper = 84_829
)

func footprintConfig(n, f, tenants int) multi.Config {
	return multi.Config{
		Tenants: tenants,
		Workers: 1,
		Node:    sim.Config{N: n, F: f, Seed: 11, ScrambleStart: true},
	}
}

// TestResidentFootprintFloor is the memory gate: the resident
// bytes/tenant of a warm T=1000 engine must stay within its limit, for
// both the minimal (n=4) and the mid-size (n=7) cluster shape under the
// shared layout, and for n=4 under the paper layout.
func TestResidentFootprintFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("footprint measurement forces full GCs")
	}
	cases := []struct {
		layout core.Layout
		n, f   int
		limit  float64
	}{
		{core.LayoutShared, 4, 1, limitBytesPerTenantN4},
		{core.LayoutShared, 7, 2, limitBytesPerTenantN7},
		{core.LayoutPaper, 4, 1, limitBytesPerTenantN4Paper},
	}
	for _, tc := range cases {
		factory := core.NewClockSyncProtocolLayout(testK, coin.FMFactory{}, tc.layout)
		fp := multi.MeasureFootprint(footprintConfig(tc.n, tc.f, 1000), factory, 12)
		t.Logf("%s n=%d: %d tenants resident, %.0f bytes/tenant (limit %.0f)",
			tc.layout, tc.n, fp.Tenants, fp.BytesPerTenant, tc.limit)
		if fp.BytesPerTenant <= 0 {
			t.Fatalf("%s n=%d: degenerate footprint %+v", tc.layout, tc.n, fp)
		}
		if fp.BytesPerTenant > tc.limit {
			t.Fatalf("%s n=%d: %.0f bytes/tenant exceeds the gate %.0f", tc.layout, tc.n, fp.BytesPerTenant, tc.limit)
		}
	}
}

// TestResident100K is the tentpole's scale proof: 100,000 tenants
// resident and stepping on one engine, still under the per-tenant
// memory gate. The build takes minutes and holds ~6 GB of live heap,
// so it runs only when the smoke harness asks for it explicitly
// (scripts/multitenant_smoke.sh, gated on machine RAM).
func TestResident100K(t *testing.T) {
	if os.Getenv("SSBYZ_SMOKE_100K") == "" {
		t.Skip("set SSBYZ_SMOKE_100K=1 to run the 100k-tenant footprint proof (~6 GB live heap)")
	}
	factory := core.NewClockSyncProtocolLayout(testK, coin.FMFactory{}, core.LayoutShared)
	fp := multi.MeasureFootprint(footprintConfig(4, 1, 100_000), factory, 8)
	t.Logf("n=4: %d tenants resident, %.0f bytes/tenant (%.2f GB total)",
		fp.Tenants, fp.BytesPerTenant, float64(fp.ResidentBytes)/(1<<30))
	if fp.Tenants != 100_000 {
		t.Fatalf("measured %d tenants, want 100000", fp.Tenants)
	}
	if fp.BytesPerTenant > limitBytesPerTenantN4 {
		t.Fatalf("%.0f bytes/tenant exceeds the gate %d at T=100k", fp.BytesPerTenant, limitBytesPerTenantN4)
	}
}

// TestRegisterFootprint: the Func gauges export the cached reading and
// a nil registry registers nothing (the zero-footprint invariant).
func TestRegisterFootprint(t *testing.T) {
	fp := multi.Footprint{Tenants: 1000, ResidentBytes: 50_000_000, BytesPerTenant: 50_000}
	reg := obs.NewRegistry()
	multi.RegisterFootprint(reg, func() multi.Footprint { return fp })
	multi.RegisterFootprint(nil, func() multi.Footprint { panic("nil registry must not invoke fp") })
	got := map[string]float64{}
	for _, s := range reg.Snapshot() {
		got[s.Name] = s.Value
	}
	if got["ssbyz_multi_resident_tenants"] != 1000 {
		t.Fatalf("resident_tenants = %v, want 1000", got["ssbyz_multi_resident_tenants"])
	}
	if got["ssbyz_multi_bytes_per_tenant"] != 50_000 {
		t.Fatalf("bytes_per_tenant = %v, want 50000", got["ssbyz_multi_bytes_per_tenant"])
	}
}
