package adversary

import (
	"fmt"
	"sort"
	"strings"
)

// Registry is the one table of adversary names: every command, sweep
// grid and the public API resolve a name here. Every entry is
// self-contained — constructable from the Context alone — which since
// the bit-oracle variants includes the strongest oracle-equipped
// attacks: BitOracleSplitter and BitOraclePhase3 read the public coin
// bit from a faulty node's own honest copy (Context.FaultyNode) instead
// of closing over a live engine, so they can be named in a serialized
// grid. "passive" maps to nil: faulty nodes follow the protocol.
var Registry = map[string]func(*Context) Adversary{
	"passive":          nil,
	"silent":           func(*Context) Adversary { return Silent{} },
	"splitter":         func(ctx *Context) Adversary { return &ClockSplitter{Ctx: ctx} },
	"gradesplitter":    func(ctx *Context) Adversary { return &GradeSplitter{Ctx: ctx} },
	"sharecorruptor":   func(ctx *Context) Adversary { return &ShareCorruptor{Ctx: ctx} },
	"recovercorruptor": func(ctx *Context) Adversary { return &RecoverCorruptor{Ctx: ctx} },
	"delayer":          func(ctx *Context) Adversary { return &Delayer{Ctx: ctx, Drop: 0.5} },
	"replayer":         func(ctx *Context) Adversary { return &Replayer{Ctx: ctx} },
	// stacked is E7's oracle-free core: clock splitting + grade splitting
	// + coin-recovery corruption in one chain.
	"stacked": func(ctx *Context) Adversary {
		return Chain{Advs: []Adversary{&ClockSplitter{Ctx: ctx}, &GradeSplitter{Ctx: ctx}, &RecoverCorruptor{Ctx: ctx}}}
	},
	"bitoraclesplitter": func(ctx *Context) Adversary { return NewBitOracleSplitter(ctx) },
	"bitoraclephase3":   func(ctx *Context) Adversary { return NewBitOraclePhase3(ctx) },
	// bitoraclestacked is the full E7 kitchen sink, oracle included: the
	// strongest attack the suite can express.
	"bitoraclestacked": func(ctx *Context) Adversary {
		return Chain{Advs: []Adversary{NewBitOracleSplitter(ctx), &GradeSplitter{Ctx: ctx}, &RecoverCorruptor{Ctx: ctx}}}
	},
}

// Lookup returns the named adversary's constructor (nil for "passive").
func Lookup(name string) (func(*Context) Adversary, error) {
	mk, ok := Registry[name]
	if !ok {
		names := make([]string, 0, len(Registry))
		for k := range Registry {
			names = append(names, k)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown adversary %q (known: %s)", name, strings.Join(names, " "))
	}
	return mk, nil
}
