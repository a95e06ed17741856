package difftest

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"ssbyzclock/internal/adversary"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/sim"
)

// row is one config and the variants run against its oracle.
type row struct {
	cfg      Config
	variants []Variant
}

func engine(workers int, pool sim.PoolMode) Variant {
	return Variant{Exec: Engine, Workers: workers, Pool: pool}
}

func multiT(tenants, workers int, pool sim.PoolMode) Variant {
	return Variant{Exec: Multi, Tenants: tenants, Workers: workers, Pool: pool}
}

func lockstep(tenants int, pool sim.PoolMode) Variant {
	return Variant{Exec: Lockstep, Tenants: tenants, Pool: pool}
}

// coinSuite is the clock-stack suite: stale-message noise, a
// PhaseKing spoiler (a no-op against this stack, kept so the suite
// stays whole), clock-layer and agreement-phase splitting with the
// public bit, and the coin-directed chain.
var coinSuite = []string{"replayer", "kingspoiler", "oraclesplitter", "phase3", "coinattack"}

// Every fault kind at once, at two mixes.
const (
	allFaults = "loss15+dup10+delay10+reorder+partition"
	faulted   = "loss20+dup10+delay10+reorder+partition"
)

// table is every cell. Rows naming one config merge, so every axis on a
// config shares its oracle. Beats shrink as n grows (and under the
// coin-directed chain, whose share and recovery corruption sends every
// honest node through the error-correcting decode), but every size
// crosses its scramble and every suite adversary.
func table() []row {
	var rows []row
	index := map[Config]int{}
	add := func(cfg Config, vs ...Variant) {
		i, ok := index[cfg]
		if !ok {
			i = len(rows)
			index[cfg] = i
			rows = append(rows, row{cfg: cfg})
		}
		for _, v := range vs {
			if !slices.Contains(rows[i].variants, v) {
				rows[i].variants = append(rows[i].variants, v)
			}
		}
	}
	scalar := func(v Variant) Variant { v.ScalarRefs = true; return v }
	registry := func(v Variant) Variant { v.Registry = true; return v }

	// Pool modes: an unpooled and a poisoned-pool engine replay the
	// pooled one, through a mid-run scramble. Poison scribbles recycled
	// buffers, so anything that keeps a reference into a beat's payload
	// (the replayer must deep-copy what it records) forks its trace.
	for _, n := range []int{4, 8, 16} {
		for _, adv := range coinSuite {
			beats := map[int]int{4: 48, 8: 48, 16: 20}[n]
			if n == 16 && adv == "coinattack" {
				beats = 8
			}
			add(Config{N: n, Adv: adv, Seed: 7, Beats: beats, Scramble: true},
				engine(1, sim.PoolOff), engine(1, sim.PoolPoison), engine(8, sim.PoolPoison))
		}
	}
	// The paper layout triples the concurrently pooled sessions: the
	// shape most likely to surface cross-instance aliasing.
	add(Config{N: 7, Layout: core.LayoutPaper, Adv: "replayer", Seed: 11, Beats: 60},
		engine(1, sim.PoolOff), engine(1, sim.PoolPoison), engine(8, sim.PoolPoison))

	// Kernels: the installed eval kernel and sweeps against the scalar
	// references, across the dispatch ladder (tails only, one 4-lane
	// block, two 8-point blocks, deep blocks).
	for _, n := range []int{4, 8, 16, 32} {
		for _, adv := range coinSuite {
			beats := map[int]int{4: 24, 8: 12, 16: 5, 32: 2}[n]
			if n == 32 && adv == "coinattack" {
				beats = 1
			}
			add(Config{N: n, Adv: adv, Seed: 7, Beats: beats, Scramble: true},
				scalar(engine(1, sim.PoolOn)), engine(8, sim.PoolOn))
		}
	}

	// Registry: a live metrics registry observes the run and never steers
	// it, and its engine series are the engine's own counters.
	for _, n := range []int{4, 8, 16} {
		for _, adv := range coinSuite {
			beats := map[int]int{4: 32, 8: 32, 16: 12}[n]
			if n == 16 && adv == "coinattack" {
				beats = 6
			}
			add(Config{N: n, Adv: adv, Seed: 7, Beats: beats, Scramble: true},
				registry(engine(1, sim.PoolOn)), registry(engine(8, sim.PoolOn)))
		}
	}

	// Tenants: every tenant of a multiplexed engine replays its
	// standalone engine, at both worker counts, pooled and poisoned (the
	// group pools are shared across tenants), unpooled, on the scalar
	// references, and at a hundred tenants.
	for _, n := range []int{4, 8, 16} {
		beats, advs := map[int]int{4: 32, 8: 24, 16: 8}[n], coinSuite
		if n == 16 {
			advs = []string{"replayer", "coinattack"}
		}
		for _, adv := range advs {
			add(Config{N: n, Adv: adv, Seed: 7, Beats: beats, Scramble: true},
				multiT(3, 1, sim.PoolOn), multiT(3, 1, sim.PoolPoison),
				multiT(3, 8, sim.PoolOn), multiT(3, 8, sim.PoolPoison))
		}
	}
	add(Config{N: 4, Adv: "replayer", Seed: 31, Beats: 24, Scramble: true},
		multiT(4, 8, sim.PoolOff), engine(1, sim.PoolOff))
	for _, n := range []int{4, 7} {
		add(Config{N: n, Adv: "splitter", Seed: 51, Beats: 16},
			scalar(multiT(8, 1, sim.PoolOn)), multiT(8, 1, sim.PoolOn))
	}
	add(Config{N: 4, Adv: "replayer", Seed: 1000, Beats: 12, Scramble: true}, multiT(100, 8, sim.PoolOn))

	// Layouts: the paper layout converges wherever the shared one does,
	// both then tick in lockstep, and both re-converge after a scramble
	// (Remark 4.1). The Rabin coin covers every size; FM covers n <= 8
	// and the GVSS path at n=16.
	paper := Variant{Exec: Engine, Workers: 1, Paper: true}
	for _, c := range []struct {
		coin  string
		ns    []int
		seeds []int64
		advs  []string
	}{
		{"rabin", []int{4, 8, 16}, []int64{1, 2}, coinSuite},
		{"fm", []int{4, 8}, []int64{1, 2}, coinSuite},
		{"fm", []int{16}, []int64{1}, []string{"replayer"}},
	} {
		for _, n := range c.ns {
			for _, adv := range c.advs {
				for _, seed := range c.seeds {
					add(Config{Coin: c.coin, N: n, Adv: adv, Seed: seed, Beats: 32, Scramble: true, Converge: true}, paper)
				}
			}
		}
	}
	// Converged shared-layout runs replay across reruns and worker
	// counts: the consumer derivation depends only on labels and the
	// shared word.
	for _, seed := range []int64{3, 11} {
		add(Config{N: 7, Adv: "oraclesplitter", Seed: seed, Beats: 24, Converge: true},
			engine(1, sim.PoolOn), engine(8, sim.PoolOn))
	}

	// Workers: the parallel scheduler replays the inline engine, and the
	// inline engine replays itself, under both coin layouts.
	for _, layout := range core.Layouts {
		add(Config{N: 7, Layout: layout, Adv: "splitter", Seed: 42, Beats: 40}, engine(1, sim.PoolOn))
		for _, adv := range []string{"passive", "silent", "delayer30", "replayer", "splitter", "gradesplitter"} {
			for seed := int64(1); seed <= 3; seed++ {
				add(Config{N: 7, Layout: layout, Adv: adv, Seed: seed, Beats: 30}, engine(8, sim.PoolOn))
			}
		}
	}

	// Links: a faulted run replays across reruns and worker counts, and
	// delayed deliveries, which outlive their beat, never read recycled
	// pool memory.
	for _, layout := range core.Layouts {
		add(Config{Layout: layout, N: 7, Adv: "splitter", Links: faulted, LinkSeed: 77, Seed: 5, Beats: 48},
			engine(1, sim.PoolOn), engine(4, sim.PoolOn))
		add(Config{Layout: layout, N: 7, Adv: "splitter", Links: "delay60", LinkSeed: 13, MaxDelay: 3, Seed: 21, Beats: 48},
			engine(1, sim.PoolPoison), engine(1, sim.PoolOff))
	}

	// Adversary boundary: adversary.PerRecipient passes forwarded copies
	// on as the original send and re-wraps only rewritten ones; it used
	// to expand every send into n fresh unicasts. Receivers must not be
	// able to tell: every registry adversary, the splitters with a fixed
	// bit and KingSpoiler over PhaseKing, on ideal and on
	// delaying/duplicating/reordering links.
	advs := make([]string, 0, len(adversary.Registry)+2)
	for name := range adversary.Registry {
		advs = append(advs, name)
	}
	sort.Strings(advs)
	advs = append(advs, "phase3-bit1", "oraclesplitter-bit1", "kingspoiler")
	expand := Variant{Exec: Engine, Workers: 1, Expand: true}
	for _, sh := range []struct {
		n      int
		layout core.Layout
	}{{4, core.LayoutShared}, {7, core.LayoutShared}, {7, core.LayoutPaper}, {16, core.LayoutShared}} {
		for _, links := range []string{"", "delay10+dup10+reorder"} {
			for _, adv := range advs {
				cfg := Config{Layout: sh.layout, N: sh.n, Adv: adv, Links: links, Seed: 5, Beats: 120}
				if links != "" {
					cfg.LinkSeed = 5
				}
				if adv == "kingspoiler" {
					if sh.layout != core.LayoutShared {
						continue // PhaseKing has no coin layout
					}
					cfg.Proto = "phaseking"
				}
				if sh.n == 16 {
					cfg.Beats = 20
					switch adv {
					case "sharecorruptor", "recovercorruptor", "stacked", "bitoraclestacked":
						cfg.Beats = 8
					}
				}
				add(cfg, expand)
			}
		}
	}

	// Networked runtime: a Lockstep cluster — tenants batched one frame
	// per link per beat — replays every tenant's engine across the fault
	// grid (the paper layout at n=4), and with poisoned pools through a
	// long run under every fault kind at once.
	for _, layout := range core.Layouts {
		for _, n := range []int{4, 8} {
			if layout == core.LayoutPaper && n > 4 {
				continue
			}
			for _, adv := range []string{"passive", "splitter", "replayer"} {
				for _, links := range []string{"none", "loss20", "delay15", "dup10", "reorder", "partition", allFaults} {
					add(Config{Layout: layout, N: n, Adv: adv, Links: links, LinkSeed: 0xC0FFEE, Seed: 41, Beats: 24},
						lockstep(1, sim.PoolOn), lockstep(3, sim.PoolOn))
				}
			}
		}
	}
	add(Config{N: 8, Adv: "replayer", Links: allFaults, LinkSeed: 7, Seed: 97, Beats: 60},
		lockstep(1, sim.PoolPoison), lockstep(3, sim.PoolPoison), engine(1, sim.PoolOff))
	return rows
}

// TestDifferential runs every cell. The scalar-reference cells run
// first, in the serial part (field.UseScalarRefs is process-global);
// every other cell is a parallel subtest.
func TestDifferential(t *testing.T) {
	t.Cleanup(func() {
		oracles.Range(func(key, v any) bool {
			if runs := v.(*oracleEntry).runs.Load(); runs != 1 {
				k := key.(oracleKey)
				t.Errorf("oracle %s tenant %d computed %d times", k.cfg.Name(), k.tenant, runs)
			}
			return true
		})
	})
	for _, r := range table() {
		t.Run(r.cfg.Name(), func(t *testing.T) {
			for _, v := range r.variants {
				if v.ScalarRefs {
					t.Run(v.Name(), func(t *testing.T) { check(t, r.cfg, v) })
				}
			}
			t.Parallel()
			for _, v := range r.variants {
				if !v.ScalarRefs {
					t.Run(v.Name(), func(t *testing.T) {
						t.Parallel()
						check(t, r.cfg, v)
					})
				}
			}
		})
	}
}

// TestTable pins the table's shape: names address cells uniquely, and
// every variant can run on its config.
func TestTable(t *testing.T) {
	names := map[string]bool{}
	for _, r := range table() {
		if names[r.cfg.Name()] {
			t.Errorf("config name %s is not unique", r.cfg.Name())
		}
		names[r.cfg.Name()] = true
		if _, ok := attacks[r.cfg.Adv]; !ok {
			t.Errorf("%s: no attack %q", r.cfg.Name(), r.cfg.Adv)
		}
		for _, v := range r.variants {
			switch {
			case v.Paper && !r.cfg.Converge:
				t.Errorf("%s/%s: a layout cell needs a Converge config", r.cfg.Name(), v.Name())
			case v.Exec == Lockstep && (r.cfg.Scramble || r.cfg.Converge || attacks[r.cfg.Adv].live):
				t.Errorf("%s/%s: a Lockstep cluster cannot scramble, converge or host a live attack", r.cfg.Name(), v.Name())
			}
		}
	}
	if t.Failed() {
		return
	}
	cells := 0
	for _, r := range table() {
		cells += len(r.variants)
	}
	t.Log(fmt.Sprintf("%d configs, %d cells", len(names), cells))
}

// TestLinksChangeTheRun: the link schedule is live — another link seed,
// or 30% loss against an ideal network, changes the honest clocks.
func TestLinksChangeTheRun(t *testing.T) {
	for _, layout := range core.Layouts {
		base := Config{Layout: layout, N: 7, Adv: "splitter", Links: faulted, LinkSeed: 77, Seed: 5, Beats: 48}
		reseeded := base
		reseeded.LinkSeed = 78
		lossy := Config{Layout: layout, N: 7, Adv: "splitter", Links: "loss30", LinkSeed: 1, Seed: 9, Beats: 32}
		ideal := lossy
		ideal.Links, ideal.LinkSeed = "", 0
		for _, pair := range [][2]Config{{base, reseeded}, {lossy, ideal}} {
			a, err := oracleTrace(pair[0], 0)
			if err != nil {
				t.Fatal(err)
			}
			b, err := oracleTrace(pair[1], 0)
			if err != nil {
				t.Fatal(err)
			}
			if slices.Equal(a.Clocks, b.Clocks) {
				t.Errorf("%s and %s tick the same clocks", pair[0].Name(), pair[1].Name())
			}
		}
	}
}
