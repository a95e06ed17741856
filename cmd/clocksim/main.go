// Command clocksim runs one clock-synchronization simulation and prints
// the honest clocks beat by beat, with optional transient-fault
// injection — the interactive way to watch the protocols work.
//
// Usage:
//
//	clocksim [-n 7] [-f 2] [-k 16] [-proto clocksync] [-coin fm]
//	         [-layout shared] [-adv silent] [-beats 120] [-seed 1]
//	         [-scramble-at 60] [-quiet]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ssbyzclock/internal/adversary"
	"ssbyzclock/internal/baseline"
	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/sim"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		n          = flag.Int("n", 7, "cluster size")
		f          = flag.Int("f", 2, "Byzantine nodes (last f ids)")
		k          = flag.Uint64("k", 16, "clock modulus")
		protoName  = flag.String("proto", "clocksync", "protocol: clocksync | twoclock | fourclock | dolevwelch | phaseking | naive")
		coinName   = flag.String("coin", "fm", "coin: fm | rabin | local")
		layoutName = flag.String("layout", core.DefaultLayout().String(), "coin layout: shared (one pipeline per node, Remark 4.1) | paper (one per consumer)")
		advName    = flag.String("adv", "silent", "adversary: passive | silent | splitter | gradesplitter | delayer | replayer")
		beats      = flag.Int("beats", 120, "beats to run")
		seed       = flag.Int64("seed", 1, "run seed")
		scrambleAt = flag.Int("scramble-at", -1, "inject a transient fault at this beat (-1 = never)")
		quiet      = flag.Bool("quiet", false, "only print the summary")
	)
	flag.Parse()

	if *n < 1 || *f < 0 || *f >= *n || *k < 1 {
		fmt.Fprintf(os.Stderr, "clocksim: bad shape n=%d f=%d k=%d: need n >= 1, 0 <= f < n, k >= 1\n", *n, *f, *k)
		return 2
	}
	layout, err := core.ParseLayout(*layoutName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	factory, kk, err := protocolFactory(*protoName, *coinName, *k, *seed, layout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	adv, err := adversaryFactory(*advName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	e := sim.New(sim.Config{
		N: *n, F: *f, Seed: *seed,
		NewAdversary: adv, ScrambleStart: true,
	}, factory)

	fmt.Printf("proto=%s coin=%s layout=%s n=%d f=%d k=%d adversary=%s seed=%d\n\n",
		*protoName, *coinName, layout, *n, *f, kk, *advName, *seed)

	syncedBeats, firstSync := 0, -1
	var prev uint64
	havePrev := false
	for b := 0; b < *beats; b++ {
		if b == *scrambleAt {
			e.ScrambleHonest()
			havePrev = false
			if !*quiet {
				fmt.Printf("%4d  *** transient fault: honest memory scrambled ***\n", b)
			}
			continue
		}
		e.Step()
		st := sim.ReadClocks(e)
		v, ok := st.Synced()
		good := ok && (!havePrev || v == (prev+1)%kk)
		prev, havePrev = v, ok
		if good {
			syncedBeats++
			if firstSync < 0 {
				firstSync = b
			}
		}
		if !*quiet {
			var cells []string
			for i, val := range st.Values {
				if st.OK[i] {
					cells = append(cells, fmt.Sprintf("%3d", val))
				} else {
					cells = append(cells, "  ⊥")
				}
			}
			mark := ""
			if good {
				mark = " <- synced"
			}
			fmt.Printf("%4d  %s%s\n", b, strings.Join(cells, " "), mark)
		}
	}
	fmt.Printf("\nsynced beats: %d/%d; first sync at beat %d\n", syncedBeats, *beats, firstSync)
	fmt.Printf("honest messages: %d (%.1f per node-beat)\n",
		e.HonestMsgs, float64(e.HonestMsgs)/float64(*beats)/float64(*n-*f))
	return 0
}

func protocolFactory(name, coinName string, k uint64, seed int64, l core.Layout) (sim.NodeFactory, uint64, error) {
	var cf coin.Factory
	switch coinName {
	case "fm":
		cf = coin.FMFactory{}
	case "rabin":
		cf = coin.RabinFactory{Seed: seed}
	case "local":
		cf = coin.LocalFactory{}
	default:
		return nil, 0, fmt.Errorf("unknown coin %q", coinName)
	}
	switch name {
	case "clocksync":
		return core.NewClockSyncProtocolLayout(k, cf, l), k, nil
	case "twoclock":
		return core.NewTwoClockProtocolLayout(cf, l), 2, nil
	case "fourclock":
		return core.NewFourClockProtocolLayout(cf, l), 4, nil
	case "dolevwelch":
		return baseline.NewDolevWelchProtocol(k), k, nil
	case "phaseking":
		return baseline.NewPhaseKingProtocol(k), k, nil
	case "naive":
		return baseline.NewNaiveProtocol(k), k, nil
	default:
		return nil, 0, fmt.Errorf("unknown protocol %q", name)
	}
}

func adversaryFactory(name string) (func(*adversary.Context) adversary.Adversary, error) {
	switch name {
	case "passive":
		return nil, nil
	case "silent":
		return func(*adversary.Context) adversary.Adversary { return adversary.Silent{} }, nil
	case "splitter":
		return func(ctx *adversary.Context) adversary.Adversary { return &adversary.ClockSplitter{Ctx: ctx} }, nil
	case "gradesplitter":
		return func(ctx *adversary.Context) adversary.Adversary { return &adversary.GradeSplitter{Ctx: ctx} }, nil
	case "delayer":
		return func(ctx *adversary.Context) adversary.Adversary { return &adversary.Delayer{Ctx: ctx, Drop: 0.5} }, nil
	case "replayer":
		return func(ctx *adversary.Context) adversary.Adversary { return &adversary.Replayer{Ctx: ctx} }, nil
	default:
		return nil, fmt.Errorf("unknown adversary %q", name)
	}
}
