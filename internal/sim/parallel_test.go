package sim_test

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"ssbyzclock/internal/adversary"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/gvss"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/sim"
)

// That every worker count replays the inline engine byte for byte,
// across the adversary suite, seeds and both coin layouts, is a set of
// cells of internal/difftest.

// gvssProto drives one gvss.Instance through its four rounds as a
// proto.Protocol so the engine (and its worker pool) can run full GVSS
// sessions; beats past the fourth are idle.
type gvssProto struct {
	ins  *gvss.Instance
	self proto.Env
}

func newGVSSFactory() sim.NodeFactory {
	return func(env proto.Env) proto.Protocol {
		return &gvssProto{ins: gvss.New(env, env.Rng), self: env}
	}
}

func (g *gvssProto) Compose(beat uint64) []proto.Send {
	switch beat {
	case 0:
		return g.ins.ComposeShare()
	case 1:
		return g.ins.ComposeEcho()
	case 2:
		return g.ins.ComposeVote()
	case 3:
		return g.ins.ComposeRecover()
	}
	return nil
}

func (g *gvssProto) Deliver(beat uint64, inbox []proto.Recv) {
	switch beat {
	case 0:
		g.ins.DeliverShare(inbox)
	case 1:
		g.ins.DeliverEcho(inbox)
	case 2:
		g.ins.DeliverVote(inbox)
	case 3:
		g.ins.DeliverRecover(inbox)
	}
}

// TestWorkerCountDeterminismGVSS runs full GVSS sessions under the
// adversary suite at both worker counts and compares every honest node's
// grade and recovery for every dealing.
func TestWorkerCountDeterminismGVSS(t *testing.T) {
	advs := []struct {
		name string
		mk   func(*adversary.Context) adversary.Adversary
	}{
		{"passive", nil},
		{"silent", func(*adversary.Context) adversary.Adversary { return adversary.Silent{} }},
		{"delayer", func(ctx *adversary.Context) adversary.Adversary {
			return &adversary.Delayer{Ctx: ctx, Drop: 0.4}
		}},
		{"sharecorruptor", func(ctx *adversary.Context) adversary.Adversary {
			return &adversary.ShareCorruptor{Ctx: ctx}
		}},
		{"recovercorruptor", func(ctx *adversary.Context) adversary.Adversary {
			return &adversary.RecoverCorruptor{Ctx: ctx}
		}},
	}
	const n, f = 7, 2
	snapshot := func(workers int, mk func(*adversary.Context) adversary.Adversary, seed int64) ([][]uint8, [][]uint64) {
		e := sim.New(sim.Config{N: n, F: f, Seed: seed, NewAdversary: mk, Workers: workers},
			newGVSSFactory())
		e.Run(gvss.Rounds)
		var grades [][]uint8
		var recs [][]uint64
		for _, id := range e.HonestIDs() {
			ins := e.Node(id).(*gvssProto).ins
			gr := make([]uint8, 0, n*n)
			rc := make([]uint64, 0, n*n)
			for d := 0; d < n; d++ {
				for tg := 0; tg < n; tg++ {
					gr = append(gr, ins.Grade(d, tg))
					v, ok := ins.Recovered(d, tg)
					if !ok {
						v = 1 << 40
					}
					rc = append(rc, uint64(v))
				}
			}
			grades = append(grades, gr)
			recs = append(recs, rc)
		}
		return grades, recs
	}
	for _, ad := range advs {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", ad.name, seed), func(t *testing.T) {
				g1, r1 := snapshot(1, ad.mk, seed)
				g8, r8 := snapshot(8, ad.mk, seed)
				if !reflect.DeepEqual(g1, g8) {
					t.Fatal("GVSS grades diverged between Workers=1 and Workers=8")
				}
				if !reflect.DeepEqual(r1, r8) {
					t.Fatal("GVSS recoveries diverged between Workers=1 and Workers=8")
				}
			})
		}
	}
}

// outOfRangeAdv sends to destinations outside [0, n) — including
// negative values that are not proto.Broadcast — plus one legitimate
// broadcast per beat, from every faulty node.
type outOfRangeAdv struct {
	ctx *adversary.Context
}

func (a outOfRangeAdv) Act(_ uint64, composed []adversary.Sends, _ []adversary.Intercept) []adversary.Sends {
	out := make([]adversary.Sends, 0, len(composed))
	for _, s := range composed {
		out = append(out, adversary.Sends{From: s.From, Out: []proto.Send{
			{To: a.ctx.N, Msg: core.BitMsg{B: 1}},         // one past the end
			{To: a.ctx.N + 7, Msg: core.BitMsg{B: 1}},     // far out of range
			{To: -2, Msg: core.BitMsg{B: 1}},              // negative, not Broadcast
			{To: -1000000, Msg: core.BitMsg{B: 1}},        // very negative
			{To: proto.Broadcast, Msg: core.BitMsg{B: 1}}, // the only deliverable send
		}})
	}
	return out
}

// countingProto records how many messages it received; Compose sends
// nothing.
type countingProto struct {
	n        int
	received int
}

func (p *countingProto) Compose(uint64) []proto.Send { return nil }
func (p *countingProto) Deliver(_ uint64, inbox []proto.Recv) {
	p.received += len(inbox)
}

// TestMalformedAdversarySendsDropped is the regression test for the
// out-of-range audit: only the broadcast may be delivered or counted,
// identically in sequential and parallel modes.
func TestMalformedAdversarySendsDropped(t *testing.T) {
	for _, workers := range []int{1, 8} {
		cfg := sim.Config{
			N: 4, F: 1, Seed: 1, Workers: workers, CountBytes: true,
			NewAdversary: func(ctx *adversary.Context) adversary.Adversary {
				return outOfRangeAdv{ctx: ctx}
			},
		}
		e := sim.New(cfg, func(env proto.Env) proto.Protocol {
			return &countingProto{n: env.N}
		})
		const beats = 10
		e.Run(beats)
		// Only the broadcast is delivered: 4 copies per beat.
		if want := uint64(4 * beats); e.FaultyMsgs != want {
			t.Fatalf("workers=%d: FaultyMsgs = %d, want %d (out-of-range sends must not count)",
				workers, e.FaultyMsgs, want)
		}
		if e.HonestMsgs != 0 {
			t.Fatalf("workers=%d: HonestMsgs = %d, want 0", workers, e.HonestMsgs)
		}
		for i := 0; i < 4; i++ {
			p := e.Node(i).(*countingProto)
			if p.received != beats {
				t.Fatalf("workers=%d: node %d received %d messages, want %d",
					workers, i, p.received, beats)
			}
		}
	}
}

// badDestProto is an honest protocol that emits an out-of-range unicast
// besides nothing else — its traffic must neither be delivered nor
// tallied into HonestMsgs/HonestBytes.
type badDestProto struct {
	n int
}

func (p *badDestProto) Compose(uint64) []proto.Send {
	return []proto.Send{{To: p.n + 3, Msg: core.BitMsg{B: 1}}}
}
func (p *badDestProto) Deliver(uint64, []proto.Recv) {}

// TestDroppedHonestSendsNotTallied pins the bounds fix: the sequential
// engine used to add the wire size of an out-of-range honest send to
// HonestBytes even though the message was dropped.
func TestDroppedHonestSendsNotTallied(t *testing.T) {
	for _, workers := range []int{1, 8} {
		e := sim.New(sim.Config{N: 4, F: 0, Seed: 1, Workers: workers, CountBytes: true},
			func(env proto.Env) proto.Protocol { return &badDestProto{n: env.N} })
		e.Run(5)
		if e.HonestMsgs != 0 || e.HonestBytes != 0 {
			t.Fatalf("workers=%d: dropped sends tallied: msgs=%d bytes=%d",
				workers, e.HonestMsgs, e.HonestBytes)
		}
	}
}

// TestSchedulerCoversAllIndices exercises the scheduler directly: for
// sizes of none, one, fewer than the workers and many more, every index
// is visited exactly once, and with the WorkerScratch of its block —
// WorkerFor's answer, one scratch per block — whichever goroutine runs
// the block.
func TestSchedulerCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		s := sim.NewScheduler(workers)
		for _, n := range []int{0, 1, workers - 1, 10*workers + 3} {
			hits := make([]int32, n)
			got := make([]*sim.WorkerScratch, n)
			for trial := 0; trial < 20; trial++ {
				s.ForEach(n, func(ws *sim.WorkerScratch, i int) {
					hits[i]++ // per-index slot: no two workers share an index
					if got[i] == nil {
						got[i] = ws
					} else if got[i] != ws {
						t.Errorf("workers=%d n=%d: index %d ran with another scratch", workers, n, i)
					}
				})
			}
			byBlock := map[int]*sim.WorkerScratch{}
			for i, h := range hits {
				if h != 20 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times in 20 fan-outs", workers, n, i, h)
				}
				b := s.WorkerFor(n, i)
				if b < 0 || b >= workers {
					t.Fatalf("workers=%d n=%d: WorkerFor(%d) = %d", workers, n, i, b)
				}
				if ws, ok := byBlock[b]; ok && ws != got[i] {
					t.Fatalf("workers=%d n=%d: block %d ran with two scratches", workers, n, b)
				}
				byBlock[b] = got[i]
			}
			seen := map[*sim.WorkerScratch]bool{}
			for _, ws := range byBlock {
				if seen[ws] {
					t.Fatalf("workers=%d n=%d: two blocks share a scratch", workers, n)
				}
				seen[ws] = true
			}
		}
	}
	if s := sim.NewScheduler(0); s.Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("workers=0 resolved to %d, want GOMAXPROCS %d", s.Workers(), runtime.GOMAXPROCS(0))
	}
}

// TestSchedulersFanOutConcurrently runs fan-outs on distinct schedulers
// from several goroutines at once — and one nested inside another — all
// sharing the process-wide crew: each must cover exactly its own
// indices.
func TestSchedulersFanOutConcurrently(t *testing.T) {
	const callers, rounds, n = 4, 200, 37
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outer := sim.NewScheduler(3)
			// One inner scheduler per outer index: a Scheduler runs one
			// fan-out at a time.
			var inner [4]*sim.Scheduler
			for i := range inner {
				inner[i] = sim.NewScheduler(2)
			}
			sums := make([]int, n)
			for r := 0; r < rounds; r++ {
				outer.ForEach(n, func(_ *sim.WorkerScratch, i int) { sums[i] += i })
				if c == 0 && r%20 == 0 {
					var nested [4][5]int
					outer.ForEach(4, func(_ *sim.WorkerScratch, i int) {
						inner[i].ForEach(5, func(_ *sim.WorkerScratch, k int) { nested[i][k]++ })
					})
					for i := range nested {
						for k, v := range nested[i] {
							if v != 1 {
								t.Errorf("nested fan-out visited (%d, %d) %d times", i, k, v)
							}
						}
					}
				}
			}
			for i, v := range sums {
				if v != i*rounds {
					t.Errorf("caller %d: index %d summed to %d, want %d", c, i, v, i*rounds)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestForEachAllocatesNothing: a fan-out with a function bound once
// allocates nothing, and neither does a warm engine beat around a
// protocol that allocates nothing, at any worker count.
func TestForEachAllocatesNothing(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		s := sim.NewScheduler(workers)
		out := make([]int, 64)
		fn := func(_ *sim.WorkerScratch, i int) { out[i]++ }
		if a := testing.AllocsPerRun(100, func() { s.ForEach(len(out), fn) }); a != 0 {
			t.Fatalf("workers=%d: ForEach allocates %.1f times per fan-out, want 0", workers, a)
		}
		e := sim.New(sim.Config{N: 16, F: 5, Seed: 1, Workers: workers},
			func(env proto.Env) proto.Protocol { return &countingProto{n: env.N} })
		e.Run(3)
		if a := testing.AllocsPerRun(100, e.Step); a != 0 {
			t.Fatalf("workers=%d: a warm engine beat allocates %.1f times, want 0", workers, a)
		}
	}
}

// TestEnginesLeaveNoGoroutines builds, steps and drops a thousand
// parallel engines: the crew is shared and persistent, so the goroutine
// count stays within the crew's size of where it started.
func TestEnginesLeaveNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for k := 0; k < 1000; k++ {
		e := sim.New(sim.Config{N: 4, F: 1, Seed: int64(k), Workers: 2},
			func(env proto.Env) proto.Protocol { return &countingProto{n: env.N} })
		e.Run(3)
	}
	if after, limit := runtime.NumGoroutine(), before+runtime.GOMAXPROCS(0); after > limit {
		t.Fatalf("%d goroutines after 1000 engines, started with %d: want at most %d", after, before, limit)
	}
}
