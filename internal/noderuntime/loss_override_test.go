package noderuntime

import (
	"fmt"
	"testing"
	"time"

	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
)

// TestLossOverrideSurvivesRestart checks that a live SetAttemptLossPct
// carries over to endpoints rebuilt by Restart — a soak run that
// toggles loss and then crash/restarts a node must not silently heal
// that node's links, however many tenants it hosts.
func TestLossOverrideSurvivesRestart(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			for _, tenants := range []int{1, 3} {
				t.Run(fmt.Sprintf("T%d", tenants), func(t *testing.T) { lossOverrideSurvivesRestart(l, t, tenants) })
			}
		})
	}
}

func lossOverrideSurvivesRestart(l core.Layout, t *testing.T, tenants int) {
	cl, err := NewCluster(ClusterConfig{
		N: 4, F: 1, Tenants: tenants, Seed: 3,
		Mode:    Real,
		Factory: core.NewClockSyncProtocolLayout(16, coin.FMFactory{}, l),
		Timing:  Timing{BeatTimeout: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	defer cl.Stop()
	cl.SetAttemptLossPct(35)
	if err := cl.Crash(0); err != nil {
		t.Fatal(err)
	}
	if err := cl.Restart(0); err != nil {
		t.Fatal(err)
	}
	if got := cl.eps[0].AttemptLossPct(); got != 35 {
		t.Fatalf("restarted endpoint attempt-loss = %d, want live override 35", got)
	}
	// And a later cluster-wide change reaches the restarted endpoint too.
	cl.SetAttemptLossPct(5)
	if got := cl.eps[0].AttemptLossPct(); got != 5 {
		t.Fatalf("restarted endpoint missed retarget: %d, want 5", got)
	}
}
