package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"ssbyzclock/internal/faultnet"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/sim"
)

// A malformed shape is a one-line error and exit status 2 before any
// cluster or socket exists — clock modulus 0 included, as in clocksim
// and clocknode.
func TestBadShapeExitsTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-k", "0"},
		{"-n", "4", "-f", "4"},
		{"-n", "0"},
		{"-transport", "udp", "-k", "0"},
		{"-beats", "-1"},
		{"-no-such-flag"},
	} {
		if rc := run(args); rc != 2 {
			t.Errorf("run(%s) = %d, want 2", strings.Join(args, " "), rc)
		}
	}
}

func TestParseSchedule(t *testing.T) {
	st, err := parseSchedule("0:none,12s:loss30+reorder,27s:partition,40s:none", 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(st) != 4 {
		t.Fatalf("got %d stages", len(st))
	}
	if st[0].at != 0 || st[0].sched != nil || st[0].attemptLoss != 0 {
		t.Fatalf("stage 0 not ideal: %+v", st[0])
	}
	if st[1].at != 12*time.Second || st[1].attemptLoss != 30 {
		t.Fatalf("stage 1: %+v", st[1])
	}
	hs, ok := st[1].sched.(*faultnet.HashSchedule)
	if !ok || !hs.Reorder || hs.LossPct != 0 {
		t.Fatalf("stage 1 schedule: %+v (loss must move to attempt-loss)", st[1].sched)
	}
	hs, ok = st[2].sched.(*faultnet.HashSchedule)
	if !ok || len(hs.Partitions) != 1 {
		t.Fatalf("stage 2 schedule: %+v", st[2].sched)
	}
	// A soak partition holds for the whole stage, not Parse's beat window.
	if p := hs.Partitions[0]; p.From != 0 || p.Until != math.MaxUint64 {
		t.Fatalf("partition window [%d,%d), want whole-stage", p.From, p.Until)
	}
	if st[3].sched != nil {
		t.Fatalf("heal stage still faulted: %+v", st[3].sched)
	}

	// At offset 0 the stage starts at beat 0, so Parse's beat window is
	// already stage-relative and holds: the partition cuts [6,12), then
	// heals.
	st, err = parseSchedule("0:loss30+partition+reorder", 7)
	if err != nil {
		t.Fatal(err)
	}
	hs, ok = st[0].sched.(*faultnet.HashSchedule)
	if !ok || st[0].attemptLoss != 30 || !hs.Reorder || len(hs.Partitions) != 1 {
		t.Fatalf("stage 0: %+v, schedule %+v", st[0], st[0].sched)
	}
	if p := hs.Partitions[0]; p.From != 6 || p.Until != 12 {
		t.Fatalf("stage-0 partition window [%d,%d), want [6,12)", p.From, p.Until)
	}

	for _, bad := range []string{"", "5s:loss10", "0:none,3s:bogus", "0:none,5s:loss10,2s:none", "none"} {
		if _, err := parseSchedule(bad, 1); err == nil {
			t.Fatalf("parseSchedule(%q) accepted", bad)
		}
	}
}

// clockAt is a protocol stand-in whose clock reads a fixed value.
type clockAt struct {
	proto.Protocol
	v uint64
}

func (c clockAt) Clock() (uint64, bool) { return c.v, true }
func (c clockAt) Modulus() uint64       { return 16 }

// The agreement gate asks for Definition 3.1's clock-synched state:
// equal clocks that never increment must fail it, however long they
// agree, while the same nodes counting in step pass.
func TestAgreementGateNeedsIncrement(t *testing.T) {
	honest := []int{0, 1, 2}
	for _, tc := range []struct {
		name  string
		clock func(beat uint64) uint64
		want  bool
	}{
		{"equal, frozen", func(uint64) uint64 { return 5 }, false},
		{"equal, counting", func(b uint64) uint64 { return b % 16 }, true},
	} {
		agree := sim.NewAgreement(honest, 16, agreementHold)
		for b := uint64(0); b < 80; b++ {
			for _, id := range []int{2, 0, 3, 1} { // id 3 is not honest
				agree.Report(id, b, clockAt{v: tc.clock(b)})
			}
		}
		if got := agreed(agree); got != tc.want {
			t.Errorf("%s: gate = %v, want %v", tc.name, got, tc.want)
		}
	}
}
