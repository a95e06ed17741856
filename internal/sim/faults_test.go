package sim_test

import (
	"testing"

	"ssbyzclock/internal/adversary"
	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/faultnet"
	"ssbyzclock/internal/sim"
)

// That a faulted run replays across reruns, worker counts and pool
// modes, and that link schedules change the run, are pinned in
// internal/difftest.

// TestTotalLossStillTalliesAndExemptsAdversary: metrics count what
// protocols emit regardless of the wire, and links into faulty nodes
// are never faulted (the rushing adversary's taps are ideal).
func TestTotalLossStillTalliesAndExemptsAdversary(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			tap := &tapAdversary{}
			cfg := sim.Config{
				N: 4, F: 1, Seed: 3,
				Links:        &faultnet.HashSchedule{LossPct: 100},
				NewAdversary: func(ctx *adversary.Context) adversary.Adversary { return tap },
			}
			e := sim.New(cfg, core.NewTwoClockProtocolLayout(coin.FMFactory{}, l))
			e.Run(10)
			if e.HonestMsgs == 0 {
				t.Fatal("total loss erased the honest message tally")
			}
			if tap.seen == 0 {
				t.Fatal("total loss cut the adversary's intercept taps")
			}
		})
	}
}

// tapAdversary counts its intercept taps and otherwise behaves.
type tapAdversary struct{ seen int }

func (a *tapAdversary) Act(_ uint64, def []adversary.Sends, vis []adversary.Intercept) []adversary.Sends {
	a.seen += len(vis)
	return def
}
