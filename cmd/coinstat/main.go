// Command coinstat inspects the self-stabilizing common coin
// (ss-Byz-Coin-Flip, Figure 1): it prints the per-beat bit stream across
// honest nodes and summarizes agreement rate and bias — the fastest way
// to see Definition 2.7's properties hold (or degrade under an attack).
//
// Usage:
//
//	coinstat [-n 7] [-f 2] [-coin fm] [-adv gradesplitter] [-beats 200] [-seed 1] [-show 40]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ssbyzclock/internal/adversary"
	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/sim"
	"ssbyzclock/internal/sscoin"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("coinstat", flag.ContinueOnError)
	var (
		n        = fs.Int("n", 7, "cluster size")
		f        = fs.Int("f", 2, "Byzantine nodes")
		coinName = fs.String("coin", "fm", "coin: fm | rabin | local")
		advName  = fs.String("adv", "passive", "adversary: passive | silent | gradesplitter | sharecorruptor")
		beats    = fs.Int("beats", 200, "beats to measure (after warm-up)")
		seed     = fs.Int64("seed", 1, "run seed")
		show     = fs.Int("show", 40, "beats of raw bit stream to print")
	)
	if fs.Parse(args) != nil {
		return 2
	}
	if *n < 1 || *f < 0 || *f >= *n || *beats < 1 {
		fmt.Fprintf(os.Stderr, "coinstat: bad shape n=%d f=%d beats=%d: need n >= 1, 0 <= f < n, beats >= 1\n", *n, *f, *beats)
		return 2
	}

	var cf coin.Factory
	switch *coinName {
	case "fm":
		cf = coin.FMFactory{}
	case "rabin":
		cf = coin.RabinFactory{Seed: *seed}
	case "local":
		cf = coin.LocalFactory{}
	default:
		fmt.Fprintf(os.Stderr, "unknown coin %q\n", *coinName)
		return 2
	}
	var mk func(*adversary.Context) adversary.Adversary
	switch *advName {
	case "passive":
	case "silent":
		mk = func(*adversary.Context) adversary.Adversary { return adversary.Silent{} }
	case "gradesplitter":
		mk = func(ctx *adversary.Context) adversary.Adversary { return &adversary.GradeSplitter{Ctx: ctx} }
	case "sharecorruptor":
		mk = func(ctx *adversary.Context) adversary.Adversary { return &adversary.ShareCorruptor{Ctx: ctx} }
	default:
		fmt.Fprintf(os.Stderr, "unknown adversary %q\n", *advName)
		return 2
	}

	e := sim.New(sim.Config{N: *n, F: *f, Seed: *seed, NewAdversary: mk},
		func(env proto.Env) proto.Protocol { return sscoin.New(env, cf) })
	e.Run(cf.Rounds() + 1) // pipeline warm-up

	fmt.Printf("coin=%s n=%d f=%d adversary=%s; per-beat honest outputs ('.' = agreed 0, '#' = agreed 1, 'X' = disagreement)\n\n",
		*coinName, *n, *f, *advName)
	agree, ones := 0, 0
	var ribbon strings.Builder
	for b := 0; b < *beats; b++ {
		e.Step()
		bits := sim.ReadBits(e)
		if v, ok := bits.Agreed(); ok {
			agree++
			if v == 1 {
				ones++
				ribbon.WriteByte('#')
			} else {
				ribbon.WriteByte('.')
			}
		} else {
			ribbon.WriteByte('X')
		}
	}
	out := ribbon.String()
	limit := *show
	if limit > len(out) {
		limit = len(out)
	}
	for i := 0; i < limit; i += 80 {
		end := i + 80
		if end > limit {
			end = limit
		}
		fmt.Println(out[i:end])
	}
	fmt.Printf("\nagreement: %d/%d beats (%.1f%%)\n", agree, *beats, 100*float64(agree)/float64(*beats))
	if agree > 0 {
		fmt.Printf("bias: %d ones / %d agreed beats (%.1f%%); p0-hat=%.2f p1-hat=%.2f\n",
			ones, agree, 100*float64(ones)/float64(agree),
			float64(agree-ones)/float64(*beats), float64(ones)/float64(*beats))
	}
	return 0
}
