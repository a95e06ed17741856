package sim_test

import (
	"reflect"
	"testing"

	"ssbyzclock/internal/adversary"
	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/faultnet"
	"ssbyzclock/internal/sim"
)

// faultedConfig is a cluster under every fault kind at once.
func faultedConfig(seed int64, links faultnet.Schedule) sim.Config {
	return sim.Config{
		N: 7, F: 2, Seed: seed, ScrambleStart: true, Links: links,
		NewAdversary: func(ctx *adversary.Context) adversary.Adversary {
			return &adversary.ClockSplitter{Ctx: ctx}
		},
	}
}

func clockTrajectory(cfg sim.Config, beats int) [][]uint64 {
	e := sim.New(cfg, core.NewClockSyncProtocol(16, coin.FMFactory{}))
	var out [][]uint64
	for i := 0; i < beats; i++ {
		e.Step()
		st := sim.ReadClocks(e)
		out = append(out, append([]uint64(nil), st.Values...))
	}
	return out
}

// TestFaultedRunReplaysExactly: link faults are part of the seeded
// determinism contract — an identical schedule replays bit for bit,
// under every worker count and pool mode difference the engine allows.
func TestFaultedRunReplaysExactly(t *testing.T) {
	mk := func() faultnet.Schedule {
		s, err := faultnet.Parse("loss20+dup10+delay10+reorder+partition")
		if err != nil {
			t.Fatal(err)
		}
		s.Seed = 77
		return s
	}
	a := clockTrajectory(faultedConfig(5, mk()), 48)
	b := clockTrajectory(faultedConfig(5, mk()), 48)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical fault schedules diverged")
	}
	cfg := faultedConfig(5, mk())
	cfg.Workers = 4
	if c := clockTrajectory(cfg, 48); !reflect.DeepEqual(a, c) {
		t.Fatal("fault schedule replay depends on worker count")
	}
	other := mk().(*faultnet.HashSchedule)
	other.Seed = 78
	if d := clockTrajectory(faultedConfig(5, other), 48); reflect.DeepEqual(a, d) {
		t.Fatal("fault seed has no effect")
	}
}

// TestFaultsChangeTheRun: a faulted run must differ from the ideal
// network on the same seed (otherwise Links is dead code).
func TestFaultsChangeTheRun(t *testing.T) {
	sched := &faultnet.HashSchedule{Seed: 1, LossPct: 30}
	ideal := clockTrajectory(faultedConfig(9, nil), 32)
	lossy := clockTrajectory(faultedConfig(9, sched), 32)
	if reflect.DeepEqual(ideal, lossy) {
		t.Fatal("30% loss left the run untouched")
	}
}

// TestTotalLossStillTalliesAndExemptsAdversary: metrics count what
// protocols emit regardless of the wire, and links into faulty nodes
// are never faulted (the rushing adversary's taps are ideal).
func TestTotalLossStillTalliesAndExemptsAdversary(t *testing.T) {
	tap := &tapAdversary{}
	cfg := sim.Config{
		N: 4, F: 1, Seed: 3,
		Links:        &faultnet.HashSchedule{LossPct: 100},
		NewAdversary: func(ctx *adversary.Context) adversary.Adversary { return tap },
	}
	e := sim.New(cfg, core.NewTwoClockProtocol(coin.FMFactory{}))
	e.Run(10)
	if e.HonestMsgs == 0 {
		t.Fatal("total loss erased the honest message tally")
	}
	if tap.seen == 0 {
		t.Fatal("total loss cut the adversary's intercept taps")
	}
}

// tapAdversary counts its intercept taps and otherwise behaves.
type tapAdversary struct{ seen int }

func (a *tapAdversary) Act(_ uint64, def []adversary.Sends, vis []adversary.Intercept) []adversary.Sends {
	a.seen += len(vis)
	return def
}

// TestDelayedDeliverySurvivesPoolRecycle: a delayed message outlives its
// beat, so the engine must deep-copy it off the pooled payload before
// the recycle phase. Poison mode makes any aliasing fail loudly.
func TestDelayedDeliverySurvivesPoolRecycle(t *testing.T) {
	sched := &faultnet.HashSchedule{Seed: 13, DelayPct: 60, MaxDelay: 3}
	cfg := faultedConfig(21, sched)
	cfg.Pool = sim.PoolPoison
	a := clockTrajectory(cfg, 48)
	cfg2 := faultedConfig(21, sched)
	cfg2.Pool = sim.PoolOff
	b := clockTrajectory(cfg2, 48)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("delayed deliveries read recycled pool memory (poison vs unpooled diverged)")
	}
}
