// Command clocksim runs one clock-synchronization simulation and prints
// the honest clocks beat by beat, with optional transient-fault
// injection — the interactive way to watch the protocols work.
//
// Usage:
//
//	clocksim [-n 7] [-f 2] [-k 16] [-proto clocksync] [-coin fm]
//	         [-layout shared] [-adv silent] [-beats 120] [-seed 1]
//	         [-scramble-at 60] [-quiet]
//
// -proto, -coin and -adv take any name of the protocol, coin and
// adversary tables (sweep.Protocols, coin.Factories,
// adversary.Registry).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ssbyzclock/internal/adversary"
	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/sim"
	"ssbyzclock/internal/sweep"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("clocksim", flag.ContinueOnError)
	var (
		n          = fs.Int("n", 7, "cluster size")
		f          = fs.Int("f", 2, "Byzantine nodes (last f ids)")
		k          = fs.Uint64("k", 16, "clock modulus")
		protoName  = fs.String("proto", "clocksync", "protocol: clocksync | clocksyncstale | twoclock | fourclock | dolevwelch | phaseking | naive")
		coinName   = fs.String("coin", "fm", "coin: fm | rabin | local")
		layoutName = fs.String("layout", "shared", "coin layout: shared (one pipeline per node, Remark 4.1) | paper (one per consumer)")
		advName    = fs.String("adv", "silent", "adversary: a name of adversary.Registry (passive, silent, splitter, gradesplitter, delayer, replayer, ...)")
		beats      = fs.Int("beats", 120, "beats to run")
		seed       = fs.Int64("seed", 1, "run seed")
		scrambleAt = fs.Int("scramble-at", -1, "inject a transient fault before this beat (-1 = never)")
		quiet      = fs.Bool("quiet", false, "only print the summary")
	)
	if fs.Parse(args) != nil {
		return 2
	}
	if *n < 1 || *f < 0 || *f >= *n || *k < 1 || *beats < 1 {
		fmt.Fprintf(os.Stderr, "clocksim: bad shape n=%d f=%d k=%d beats=%d: need n >= 1, 0 <= f < n, k >= 1, beats >= 1\n", *n, *f, *k, *beats)
		return 2
	}
	layout, err := core.ParseLayout(*layoutName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	p, err := sweep.LookupProtocol(*protoName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	cf, err := coin.Lookup(*coinName, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	adv, err := adversary.Lookup(*advName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	kk := p.K(*k)
	e := sim.New(sim.Config{
		N: *n, F: *f, Seed: *seed,
		NewAdversary: adv, ScrambleStart: true,
	}, p.New(*k, cf, layout))

	fmt.Printf("proto=%s coin=%s layout=%s n=%d f=%d k=%d adversary=%s seed=%d\n\n",
		*protoName, *coinName, layout, *n, *f, kk, *advName, *seed)

	// The judge's per-beat verdict is what counts here, not its hold.
	syncedBeats, firstSync := 0, -1
	judge := sim.NewJudge(kk, 1)
	for b := 0; b < *beats; b++ {
		if b == *scrambleAt {
			e.ScrambleHonest()
			if !*quiet {
				fmt.Printf("%4d  *** transient fault: honest memory scrambled ***\n", b)
			}
		}
		e.Step()
		st := sim.ReadClocks(e)
		good := judge.Observe(st.Synced())
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
