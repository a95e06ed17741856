package main

import (
	"hash/fnv"
	"slices"
	"time"

	"ssbyzclock/internal/adversary"
	"ssbyzclock/internal/multi"
	"ssbyzclock/internal/sim"
)

// engine-n16: episodes of episodeBeats beats on a fresh n=16 f=5
// sim.Engine under ClockSplitter, each from a scrambled state, until
// the time budget is spent. An episode always runs to its end, so
// every counted episode is complete.
const (
	engineN      = 16
	engineF      = 5
	episodeBeats = 200
	// hashEpisodes is the fixed prefix of episodes trace_hash covers:
	// the hash must not depend on how many episodes the time budget
	// happened to fit.
	hashEpisodes = 8
)

func engineConfig(seed int64, episode int) sim.Config {
	return sim.Config{
		N: engineN, F: engineF,
		Seed:          seed*seedStride + int64(episode),
		ScrambleStart: true,
		NewAdversary: func(ctx *adversary.Context) adversary.Adversary {
			return &adversary.ClockSplitter{Ctx: ctx}
		},
	}
}

// phasedStepper drives an engine through its public phased API —
// ComposeNode ∀i, ExchangePhase, DeliverNode ∀i, FinishBeat, which
// sim documents as byte-identical to Step — over its own scheduler of
// the same worker count Step uses, recording one span per phase.
type phasedStepper struct {
	sched *sim.Scheduler
	rec   *recorder
}

func (p *phasedStepper) step(e *sim.Engine, trace int64) {
	rec := p.rec
	beat := rec.newID()
	t0 := rec.now()
	p.sched.ForEach(e.N(), func(_ *sim.WorkerScratch, i int) { e.ComposeNode(i) })
	t1 := rec.now()
	e.ExchangePhase()
	t2 := rec.now()
	p.sched.ForEach(e.N(), func(_ *sim.WorkerScratch, i int) { e.DeliverNode(i) })
	t3 := rec.now()
	e.FinishBeat()
	t4 := rec.now()
	rec.add("sim.compose", beat, trace, t0, t1)
	rec.add("sim.exchange", beat, trace, t1, t2)
	rec.add("sim.deliver", beat, trace, t2, t3)
	rec.add("sim.finish", beat, trace, t3, t4)
	rec.addWithID(beat, "engine.beat", 0, trace, t0, t4)
}

func runEngine(seed int64, b budget, rec *recorder) (*outcome, error) {
	out := &outcome{metrics: metrics{}}
	episodes, beatsPer := 0, episodeBeats
	if b.short {
		beatsPer = 60
	}
	stop := b.until(3)

	var (
		cost      procCost
		setups    []float64 // seconds
		residents []float64 // bytes
		beatMs    []float64
		stabBeats []float64
		stabMs    []float64
		msgs      uint64
		agreed    int
		seen      int
	)
	elapsedMs := make([]float64, beatsPer) // since episode start, per beat
	hash := fnv.New64a()
	var stepper *phasedStepper
	if rec != nil {
		stepper = &phasedStepper{sched: sim.NewScheduler(0), rec: rec}
	}
	for ; !stop(episodes); episodes++ {
		cfg := engineConfig(seed, episodes)
		// The first few episodes also measure what one engine keeps
		// resident; the forced collections stay outside setup_s.
		measureHeap := episodes < max(b.setups, 1)
		var heap0 uint64
		if measureHeap {
			heap0 = multi.LiveHeap()
		}
		s0 := time.Now()
		e := sim.New(cfg, stackFactory)
		readers := clockReaders(e)
		setups = append(setups, time.Since(s0).Seconds())
		if measureHeap {
			residents = append(residents, heapGrowth(heap0))
		}

		st := newStreak()
		from := snapProc()
		epStart := time.Now()
		for beat := 0; beat < beatsPer; beat++ {
			t0 := time.Now()
			if stepper != nil {
				stepper.step(e, int64(episodes+1))
			} else {
				e.Step()
			}
			beatMs = append(beatMs, float64(time.Since(t0))/1e6)
			elapsedMs[beat] = float64(time.Since(epStart)) / 1e6
			v, ok := agreedClock(readers)
			st.observe(beat, v, ok)
			if episodes < hashEpisodes {
				hashClocks(hash, readers)
			}
		}
		cost.add(from, snapProc())
		msgs += e.HonestMsgs + e.FaultyMsgs
		agreed += st.agreed
		seen += st.seen

		out.attempted++
		if st.stableAt < 0 || st.violations > 0 {
			out.failed++
			out.notef("episode %d (seed %d): stableAt=%d violations=%d", episodes, cfg.Seed, st.stableAt, st.violations)
		}
		if st.stableAt >= 0 {
			stabBeats = append(stabBeats, float64(st.stableAt))
			stabMs = append(stabMs, elapsedMs[st.stableAt])
		} else {
			stabBeats = append(stabBeats, float64(beatsPer))
		}
	}

	beats := float64(episodes * beatsPer)
	m := out.metrics
	out.samples = len(beatMs)
	out.traceHash = hash.Sum64()
	if err := fillBeatMetrics(m, beatMs, cost, beats, median(setups)); err != nil {
		return nil, err
	}
	m["resident_bytes"] = slices.Min(residents)
	if seen > 0 {
		m["agreed_ratio"] = float64(agreed) / float64(seen)
	}
	m["core.stabilize_beats_mean"] = mean(stabBeats)
	m["core.stabilize_ms_p50"] = median(stabMs)
	m["sim.msgs_per_beat"] = float64(msgs) / beats
	cost.procMetrics(m, beats)
	if rec != nil {
		// Byte accounting encodes every message, which would slow the
		// traced beats by a quarter; one extra untimed episode counts
		// bytes instead.
		cfg := engineConfig(seed, 0)
		cfg.CountBytes = true
		e := sim.New(cfg, stackFactory)
		e.Run(beatsPer)
		m["sim.bytes_per_beat"] = float64(e.HonestBytes) / float64(beatsPer)
		var phases float64
		for _, ph := range []string{"compose", "exchange", "deliver", "finish"} {
			ns, _ := rec.total("sim." + ph)
			m["sim."+ph+"_ms_per_beat"] = float64(ns) / 1e6 / beats
			phases += float64(ns)
		}
		beatNs, _ := rec.total("engine.beat")
		out.notef("traced beat %.4f ms; the four phase spans cover %.1f%% of it",
			float64(beatNs)/1e6/beats, 100*phases/float64(max(beatNs, 1)))
	}
	out.notef("%d episodes x %d beats; stabilised in %.2f beats on average", episodes, beatsPer, mean(stabBeats))
	return out, nil
}
