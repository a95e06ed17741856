package difftest

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"ssbyzclock/internal/adversary"
	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/faultnet"
	"ssbyzclock/internal/field"
	"ssbyzclock/internal/multi"
	"ssbyzclock/internal/noderuntime"
	"ssbyzclock/internal/obs"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/sim"
	"ssbyzclock/internal/sweep"
	"ssbyzclock/internal/wire"
)

const (
	k           = 16   // clock modulus of every stack under test
	convergeMax = 1500 // beats a Converge window may take to settle
	hold        = 12   // the judge's hold window
)

// Config fixes one seeded execution: everything but the executor and
// its settings, which the Variant names.
type Config struct {
	Proto    string // sweep.Protocols name; "" is clocksync
	Coin     string // coin.Factories name, seeded with Seed; "" is fm
	Layout   core.Layout
	N        int    // f = (N-1)/3, the last f ids faulty
	Adv      string // attacks name
	Links    string // faultnet schedule; "" is an ideal network
	LinkSeed uint64
	MaxDelay uint64 // overrides the schedule's longest delay when set
	Seed     int64  // tenant t runs Seed+t
	// Beats is the length of the recorded run. With Scramble the run
	// then scrambles every honest node and records Beats more; with
	// Converge each such window is preceded by stepping until the judge
	// declares convergence (at most convergeMax beats, which must
	// suffice), and every window beat must be synced.
	Beats    int
	Scramble bool
	Converge bool
}

func (c Config) f() int { return (c.N - 1) / 3 }

// Name is the config's subtest name: no '/' so `-run` patterns address
// configs and variants as two levels.
func (c Config) Name() string {
	s := fmt.Sprintf("n%d-%s-%s-%s", c.N, or(c.Coin, "fm"), c.Layout, c.Adv)
	if c.Proto != "" {
		s = fmt.Sprintf("n%d-%s-%s", c.N, c.Proto, c.Adv)
	}
	if c.Links != "" {
		s += fmt.Sprintf("-%s@%d", c.Links, c.LinkSeed)
	}
	if c.MaxDelay != 0 {
		s += fmt.Sprintf("-maxdelay%d", c.MaxDelay)
	}
	s += fmt.Sprintf("-s%d-b%d", c.Seed, c.Beats)
	if c.Scramble {
		s += "x2"
	}
	if c.Converge {
		s += "-conv"
	}
	return s
}

func or(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// Exec names an executor.
type Exec uint8

const (
	Engine   Exec = iota // sim.Engine
	Multi                // multi.Engine, Tenants tenants
	Lockstep             // noderuntime.Cluster in Lockstep mode, Tenants tenants
)

// Variant is one point on the harness's axes: the executor, its tenant
// count, worker count and pool mode, and the switches that must not
// change a trace (live registry, scalar-reference kernels, expanded
// adversary output) or must change it only within what both coin
// layouts share (Paper).
type Variant struct {
	Exec       Exec
	Tenants    int // Multi and Lockstep
	Workers    int // Engine and Multi
	Pool       sim.PoolMode
	Registry   bool // a live obs registry; its engine series must equal the counters
	ScalarRefs bool // field.UseScalarRefs: process-global, so never run in parallel
	Expand     bool // adversary.Context.Expand, and every adversary send re-expanded into unicasts
	Paper      bool // core.LayoutPaper; compared by closure projection (Converge configs)
}

// oracle is the reference every cell compares with: the plain engine,
// inline, pooled, uninstrumented, on the installed kernels.
var oracle = Variant{Exec: Engine, Workers: 1}

var poolNames = [...]string{sim.PoolOn: "on", sim.PoolOff: "off", sim.PoolPoison: "poison"}

// Name is the variant's subtest name.
func (v Variant) Name() string {
	var s string
	switch v.Exec {
	case Engine:
		s = fmt.Sprintf("engine-w%d-%s", v.Workers, poolNames[v.Pool])
	case Multi:
		s = fmt.Sprintf("multi-T%d-w%d-%s", v.Tenants, v.Workers, poolNames[v.Pool])
	case Lockstep:
		s = fmt.Sprintf("lockstep-T%d-%s", v.Tenants, poolNames[v.Pool])
	}
	for _, m := range []struct {
		on   bool
		name string
	}{{v.Registry, "registry"}, {v.ScalarRefs, "scalar"}, {v.Expand, "expand"}, {v.Paper, "paper"}} {
		if m.on {
			s += "-" + m.name
		}
	}
	return s
}

func (v Variant) tenants() int {
	if v.Exec == Engine {
		return 1
	}
	return v.Tenants
}

// attack is one adversary of the suite. bit reads tenant's node 0's
// current phase-3 bit: the oracle-equipped splitters close over it, so
// they need an executor whose nodes the adversary may read between
// phases (live), which the Lockstep cluster's goroutines are not.
type attack struct {
	mk   func(ctx *adversary.Context, bit func() byte) adversary.Adversary
	live bool
}

// attacks is the one adversary suite: adversary.Registry plus the
// attacks no grid can name — the splitters with an engine-read or a
// fixed public bit, the coin-directed chain, KingSpoiler (hostile to
// PhaseKing) and a 30% Delayer.
var attacks = func() map[string]attack {
	m := map[string]attack{
		"oraclesplitter": {live: true, mk: func(ctx *adversary.Context, bit func() byte) adversary.Adversary {
			return &adversary.OracleSplitter{Ctx: ctx, BitOracle: bit}
		}},
		"phase3": {live: true, mk: func(ctx *adversary.Context, bit func() byte) adversary.Adversary {
			return &adversary.Phase3Splitter{Ctx: ctx, BitOracle: bit}
		}},
		"oraclesplitter-bit1": {mk: func(ctx *adversary.Context, _ func() byte) adversary.Adversary {
			return &adversary.OracleSplitter{Ctx: ctx, BitOracle: func() byte { return 1 }}
		}},
		"phase3-bit1": {mk: func(ctx *adversary.Context, _ func() byte) adversary.Adversary {
			return &adversary.Phase3Splitter{Ctx: ctx, BitOracle: func() byte { return 1 }}
		}},
		// Grade splitting, share corruption and recovery corruption: the
		// full attack on the coin itself.
		"coinattack": {mk: func(ctx *adversary.Context, _ func() byte) adversary.Adversary {
			return adversary.Chain{Advs: []adversary.Adversary{
				&adversary.GradeSplitter{Ctx: ctx},
				&adversary.ShareCorruptor{Ctx: ctx},
				&adversary.RecoverCorruptor{Ctx: ctx},
			}}
		}},
		"kingspoiler": {mk: func(ctx *adversary.Context, _ func() byte) adversary.Adversary {
			return &adversary.KingSpoiler{Ctx: ctx}
		}},
		"delayer30": {mk: func(ctx *adversary.Context, _ func() byte) adversary.Adversary {
			return &adversary.Delayer{Ctx: ctx, Drop: 0.3}
		}},
	}
	for name, mk := range adversary.Registry {
		if mk == nil {
			m[name] = attack{} // passive: faulty nodes follow the protocol
			continue
		}
		m[name] = attack{mk: func(ctx *adversary.Context, _ func() byte) adversary.Adversary { return mk(ctx) }}
	}
	return m
}()

// expandAll rebuilds the pre-Forward output shape of its inner
// adversary: every in-range copy of every send as its own unicast,
// re-wrapped in fresh value-form envelopes — PerRecipient's reference
// shape (Context.Expand, which the expand cells also hand the inner
// adversary) applied to the sends no PerRecipient call made.
type expandAll struct {
	inner adversary.Adversary
	ctx   *adversary.Context
}

func (x expandAll) Act(beat uint64, composed []adversary.Sends, visible []adversary.Intercept) []adversary.Sends {
	out := x.inner.Act(beat, composed, visible)
	expanded := make([]adversary.Sends, len(out))
	for i, s := range out {
		expanded[i] = adversary.Sends{From: s.From, Out: adversary.PerRecipient(x.ctx, s.Out,
			func(int, adversary.Path, proto.Message) proto.Message { return adversary.Forward })}
	}
	return expanded
}

// tap is a node that records, for every beat it is delivered, a digest
// of its inbox (each message's sender and wire encoding, in order) and,
// after the inner node's Deliver, its clock and phase-3 bit. It is
// otherwise the node: it passes on Scramble, Clock and the bit the
// oracle adversaries read. Every executor builds its nodes through the
// same factory, so the same taps observe all of them.
type tap struct {
	proto.Protocol
	memo   *memo // nil: digest every message afresh
	inbox  []uint64
	clocks []uint64 // ^0 for ⊥
	rands  []byte
	buf    []byte
}

func (t *tap) Deliver(beat uint64, inbox []proto.Recv) {
	h := uint64(14695981039346656037)
	for _, r := range inbox {
		h = mix(mix(h, uint64(r.From)), t.digestMsg(beat, r.Msg))
	}
	t.inbox = append(t.inbox, h)
	t.Protocol.Deliver(beat, inbox)
	v, ok := t.Clock()
	if !ok {
		v = ^uint64(0)
	}
	t.clocks = append(t.clocks, v)
	t.rands = append(t.rands, t.RandBit())
}

func (t *tap) Scramble(rng *rand.Rand) {
	if s, ok := t.Protocol.(proto.Scrambler); ok {
		s.Scramble(rng)
	}
}

func (t *tap) Clock() (uint64, bool) {
	if cr, ok := t.Protocol.(proto.ClockReader); ok {
		return cr.Clock()
	}
	return 0, false
}

func (t *tap) Modulus() uint64 { return k }

func (t *tap) RandBit() byte {
	if r, ok := t.Protocol.(interface{ RandBit() byte }); ok {
		return r.RandBit()
	}
	return 0
}

// digestMsg digests m's wire encoding (an unencodable prefix still
// digests).
func (t *tap) digestMsg(beat uint64, m proto.Message) uint64 {
	if t.memo != nil {
		path, leaf := adversary.Unwrap(m)
		if typ := reflect.TypeOf(leaf); typ != nil && typ.Kind() == reflect.Pointer {
			return t.memo.get(beat, memoKey{path, leaf}, m, t.encode)
		}
	}
	return t.encode(m)
}

func (t *tap) encode(m proto.Message) uint64 {
	t.buf, _ = wire.AppendTo(t.buf[:0], m)
	return digest(14695981039346656037, t.buf)
}

// memo holds one tenant's message digests for one beat, keyed by the
// message's envelope path and the pointer its leaf travels as: a
// broadcast, or a leaf an adversary re-wraps per recipient, reaches
// every inbox as one pointer, so it is encoded once per beat, not once
// per recipient (pointer and value envelopes encode alike). A beat's
// messages all live until its deliver phase ends, so within a beat a
// pointer names one message; the memo forgets at the next beat.
// (A receiver that wrote into a shared message would go unseen here, but
// not in the later receivers' clocks and bits.) Lockstep clusters decode
// a copy per recipient and do not memoize.
type memo struct {
	mu   sync.Mutex
	beat uint64
	m    map[memoKey]uint64
}

type memoKey struct {
	path adversary.Path
	leaf proto.Message
}

func (mm *memo) get(beat uint64, key memoKey, m proto.Message, encode func(proto.Message) uint64) uint64 {
	mm.mu.Lock()
	if mm.m == nil {
		mm.m = map[memoKey]uint64{}
	}
	if beat != mm.beat {
		mm.beat = beat
		clear(mm.m)
	}
	d, ok := mm.m[key]
	mm.mu.Unlock()
	if !ok {
		d = encode(m)
		mm.mu.Lock()
		mm.m[key] = d
		mm.mu.Unlock()
	}
	return d
}

// digest folds b into h eight bytes at a time (length-prefixed, so
// message boundaries count).
func digest(h uint64, b []byte) uint64 {
	h = mix(h, uint64(len(b)))
	for ; len(b) >= 8; b = b[8:] {
		h = mix(h, binary.LittleEndian.Uint64(b))
	}
	for _, c := range b {
		h = mix(h, uint64(c))
	}
	return h
}

func mix(h, w uint64) uint64 {
	h = (h ^ w) * 1099511628211
	return h ^ h>>32
}

// Counters are an engine's cumulative message counters.
type Counters struct{ HonestMsgs, FaultyMsgs, HonestBytes uint64 }

// Trace is one tenant's canonical run record.
type Trace struct {
	n, h   int      // nodes and honest nodes per beat row
	Clocks []uint64 // beats × honest nodes; ^0 is ⊥
	Rands  []byte   // beats × honest nodes
	Inbox  []uint64 // beats × nodes, faulty copies included
	// Windows holds, for Converge configs, the first beat of each
	// post-convergence window, and Converged the judge's ConvergedAt
	// for it.
	Windows, Converged []int
	// Counters is nil where the executor keeps none (Lockstep).
	Counters *Counters
}

func (tr Trace) beats() int {
	if tr.h == 0 {
		return 0
	}
	return len(tr.Clocks) / tr.h
}

// Hash fingerprints the per-beat record (everything but Counters).
func (tr Trace) Hash() uint64 {
	h := uint64(14695981039346656037)
	var buf []byte
	for _, c := range tr.Clocks {
		buf = binary.LittleEndian.AppendUint64(buf, c)
	}
	buf = append(buf, tr.Rands...)
	for _, d := range tr.Inbox {
		buf = binary.LittleEndian.AppendUint64(buf, d)
	}
	for _, w := range append(tr.Windows, tr.Converged...) {
		buf = binary.AppendVarint(buf, int64(w))
	}
	return digest(h, buf)
}

// diff is the one comparison: nil when got replays want, else the first
// divergence.
func diff(want, got Trace) error {
	if want.Counters != nil && got.Counters != nil && *want.Counters != *got.Counters {
		return fmt.Errorf("counters diverged: got %+v, want %+v", *got.Counters, *want.Counters)
	}
	if want.Hash() == got.Hash() {
		return nil
	}
	if want.beats() != got.beats() || want.h != got.h || want.n != got.n {
		return fmt.Errorf("shape diverged: %d beats × %d/%d nodes, want %d × %d/%d",
			got.beats(), got.h, got.n, want.beats(), want.h, want.n)
	}
	for b := 0; b < want.beats(); b++ {
		for i := b * want.h; i < (b+1)*want.h; i++ {
			if got.Clocks[i] != want.Clocks[i] {
				return fmt.Errorf("clock diverged at beat %d honest#%d: got %d, want %d", b, i%want.h, got.Clocks[i], want.Clocks[i])
			}
			if got.Rands[i] != want.Rands[i] {
				return fmt.Errorf("rand bit diverged at beat %d honest#%d", b, i%want.h)
			}
		}
		for i := b * want.n; i < (b+1)*want.n; i++ {
			if got.Inbox[i] != want.Inbox[i] {
				return fmt.Errorf("inbox diverged at beat %d node %d", b, i%want.n)
			}
		}
	}
	return fmt.Errorf("convergence diverged: windows %v at %v, want %v at %v", got.Windows, got.Converged, want.Windows, want.Converged)
}

// closure projects a Converge trace onto what the two coin layouts
// share: the common clock's increment between consecutive beats of
// each post-convergence window (the runner has checked every window
// beat is synced). Bit-level equality across layouts is not a property
// Remark 4.1 claims — the shared pipeline derives each consumer's bit
// from one word where the paper layout runs a pipeline per consumer —
// but both stacks must converge, and then tick in lockstep (a constant
// clock offset) until scrambled.
func (tr Trace) closure(beats int) Trace {
	out := Trace{h: 1}
	for _, start := range tr.Windows {
		for b := start + 1; b < start+beats; b++ {
			out.Clocks = append(out.Clocks, (tr.Clocks[b*tr.h]+k-tr.Clocks[(b-1)*tr.h])%k)
			out.Rands = append(out.Rands, 0)
		}
	}
	return out
}

// taps collects every node an executor builds, in construction order:
// tenant-major, id-minor, in all three executors.
type taps struct {
	n     int
	all   []*tap
	memos []*memo // per tenant; nil when not memoizing
}

func (ts *taps) factory(inner sim.NodeFactory, memoize bool) sim.NodeFactory {
	return func(env proto.Env) proto.Protocol {
		t := &tap{Protocol: inner(env)}
		if memoize {
			if len(ts.all)%ts.n == 0 {
				ts.memos = append(ts.memos, &memo{})
			}
			t.memo = ts.memos[len(ts.memos)-1]
		}
		ts.all = append(ts.all, t)
		return t
	}
}

func (ts *taps) tenant(t int) []*tap { return ts.all[t*ts.n : (t+1)*ts.n] }

// bit reads tenant t's node 0's current bit (node 0 is honest).
func (ts *taps) bit(t int) func() byte {
	return func() byte { return ts.tenant(t)[0].RandBit() }
}

// synced reports tenant t's honest clocks after the last beat.
func (ts *taps) synced(t, h int) (uint64, bool) {
	nodes := ts.tenant(t)[:h]
	b := len(nodes[0].clocks) - 1
	v := nodes[0].clocks[b]
	for _, nd := range nodes {
		if nd.clocks[b] != v || v == ^uint64(0) {
			return 0, false
		}
	}
	return v, true
}

// trace assembles tenant t's trace from its taps.
func (ts *taps) trace(t, h int) (Trace, error) {
	nodes := ts.tenant(t)
	tr := Trace{n: ts.n, h: h}
	beats := len(nodes[0].inbox)
	for id, nd := range nodes {
		if len(nd.inbox) != beats {
			return tr, fmt.Errorf("tenant %d node %d delivered %d beats, node 0 %d", t, id, len(nd.inbox), beats)
		}
	}
	for b := 0; b < beats; b++ {
		for _, nd := range nodes[:h] {
			tr.Clocks = append(tr.Clocks, nd.clocks[b])
			tr.Rands = append(tr.Rands, nd.rands[b])
		}
		for _, nd := range nodes {
			tr.Inbox = append(tr.Inbox, nd.inbox[b])
		}
	}
	return tr, nil
}

// run executes cfg under v — tenant t seeded Seed+tenant0+t — and
// returns one trace per tenant.
func run(cfg Config, v Variant, tenant0 int) ([]Trace, error) {
	if v.ScalarRefs {
		defer field.UseScalarRefs(field.UseScalarRefs(true))
	}
	p, err := sweep.LookupProtocol(or(cfg.Proto, "clocksync"))
	if err != nil {
		return nil, err
	}
	cf, err := coin.Lookup(or(cfg.Coin, "fm"), cfg.Seed)
	if err != nil {
		return nil, err
	}
	layout := cfg.Layout
	if v.Paper {
		layout = core.LayoutPaper
	}
	atk, ok := attacks[cfg.Adv]
	if !ok {
		return nil, fmt.Errorf("no attack %q", cfg.Adv)
	}
	var links faultnet.Schedule
	if cfg.Links != "" {
		s, err := faultnet.Parse(cfg.Links)
		if err != nil {
			return nil, err
		}
		s.Seed, s.MaxDelay = cfg.LinkSeed, cfg.MaxDelay
		links = s
	}
	n, f, T := cfg.N, cfg.f(), v.tenants()
	ts := &taps{n: n}
	factory := ts.factory(p.New(k, cf, layout), v.Exec != Lockstep)
	newAdv := func(bit func() byte) func(*adversary.Context) adversary.Adversary {
		if atk.mk == nil && !v.Expand {
			return nil
		}
		return func(ctx *adversary.Context) adversary.Adversary {
			ctx.Expand = v.Expand
			var a adversary.Adversary = adversary.Passive{}
			if atk.mk != nil {
				a = atk.mk(ctx, bit)
			}
			if v.Expand {
				a = expandAll{inner: a, ctx: ctx}
			}
			return a
		}
	}
	node := func(t int) sim.Config {
		return sim.Config{
			N: n, F: f, Seed: cfg.Seed + int64(tenant0+t),
			ScrambleStart: true, CountBytes: true,
			Workers: v.Workers, Pool: v.Pool, Links: links,
			NewAdversary: newAdv(ts.bit(t)),
		}
	}

	var (
		step, scramble func()
		counters       func(t int) *Counters
		verify         = func(int) error { return nil }
	)
	switch v.Exec {
	case Engine:
		c := node(0)
		var reg *obs.Registry
		if v.Registry {
			reg = obs.NewRegistry()
			c.Metrics = reg
		}
		eng := sim.New(c, factory)
		step, scramble = eng.Step, eng.ScrambleHonest
		counters = func(int) *Counters { return &Counters{eng.HonestMsgs, eng.FaultyMsgs, eng.HonestBytes} }
		if reg != nil {
			verify = func(beats int) error { return checkSeries(reg, eng, beats) }
		}
	case Multi:
		m := multi.New(multi.Config{Tenants: T, Workers: v.Workers, NodeFor: node}, factory)
		step, scramble = m.Step, m.ScrambleHonest
		counters = func(t int) *Counters {
			e := m.Tenant(t)
			return &Counters{e.HonestMsgs, e.FaultyMsgs, e.HonestBytes}
		}
	case Lockstep:
		if cfg.Scramble || cfg.Converge {
			return nil, fmt.Errorf("a Lockstep cluster runs a fixed beat budget: no Scramble or Converge")
		}
		if atk.live {
			return nil, fmt.Errorf("attack %q reads a live node: not on a Lockstep cluster", cfg.Adv)
		}
		cl, err := noderuntime.NewCluster(noderuntime.ClusterConfig{
			N: n, F: f, Tenants: T, Seed: cfg.Seed, ScrambleStart: true,
			Mode: noderuntime.Lockstep, Factory: factory, NewAdversary: newAdv(nil),
			Pool: v.Pool, Links: links, MaxBeats: uint64(cfg.Beats),
		})
		if err != nil {
			return nil, err
		}
		cl.Start()
		cl.Wait()
		cl.Stop()
		return traces(ts, T, n-f, nil, nil, nil)
	}

	steps := 0
	stepped := func() { step(); steps++ }
	windows, converged := make([][]int, T), make([][]int, T)
	rounds := 1
	if cfg.Scramble {
		rounds = 2
	}
	for w := 0; w < rounds; w++ {
		if w > 0 {
			scramble()
		}
		if cfg.Converge {
			judges := make([]sim.Judge, T)
			for t := range judges {
				judges[t] = sim.NewJudge(k, hold)
			}
			for b, settled := 0, false; !settled; b++ {
				if b == convergeMax {
					return nil, fmt.Errorf("window %d: no convergence within %d beats", w, convergeMax)
				}
				stepped()
				settled = true
				for t := range judges {
					if !judges[t].Result().Converged {
						judges[t].Observe(ts.synced(t, n-f))
					}
					settled = settled && judges[t].Result().Converged
				}
			}
			for t := range judges {
				converged[t] = append(converged[t], judges[t].Result().ConvergedAt)
				windows[t] = append(windows[t], len(ts.tenant(t)[0].clocks))
			}
		}
		for b := 0; b < cfg.Beats; b++ {
			stepped()
			for t := 0; t < T && cfg.Converge; t++ {
				if _, ok := ts.synced(t, n-f); !ok {
					return nil, fmt.Errorf("window %d beat %d: tenant %d lost sync", w, b, t)
				}
			}
		}
	}
	if err := verify(steps); err != nil {
		return nil, err
	}
	return traces(ts, T, n-f, counters, windows, converged)
}

func traces(ts *taps, T, h int, counters func(int) *Counters, windows, converged [][]int) ([]Trace, error) {
	out := make([]Trace, T)
	for t := range out {
		tr, err := ts.trace(t, h)
		if err != nil {
			return nil, err
		}
		if counters != nil {
			tr.Counters = counters(t)
			tr.Windows, tr.Converged = windows[t], converged[t]
		}
		out[t] = tr
	}
	return out, nil
}

// checkSeries holds a live registry to the engine it watched: the
// scraped series are the engine's cumulative counters, exactly.
func checkSeries(reg *obs.Registry, eng *sim.Engine, beats int) error {
	values := map[string]float64{}
	for _, s := range reg.Snapshot() {
		values[s.Name] = s.Value
	}
	for _, c := range []struct {
		series string
		want   uint64
	}{
		{"ssbyz_engine_beats_total", uint64(beats)},
		{"ssbyz_engine_honest_msgs_total", eng.HonestMsgs},
		{"ssbyz_engine_faulty_msgs_total", eng.FaultyMsgs},
		{"ssbyz_engine_honest_bytes_total", eng.HonestBytes},
	} {
		if values[c.series] != float64(c.want) {
			return fmt.Errorf("%s = %v, engine says %d", c.series, values[c.series], c.want)
		}
	}
	return nil
}

// oracleEntry memoizes one (config, tenant) oracle trace; runs counts
// its computations, which must stay at one per test process.
type oracleEntry struct {
	once sync.Once
	tr   Trace
	err  error
	runs atomic.Int32
}

type oracleKey struct {
	cfg    Config
	tenant int
}

var oracles sync.Map // oracleKey → *oracleEntry

// oracleTrace returns tenant's oracle trace for cfg, computing it on
// first use: the plain engine seeded Seed+tenant.
func oracleTrace(cfg Config, tenant int) (Trace, error) {
	v, _ := oracles.LoadOrStore(oracleKey{cfg, tenant}, &oracleEntry{})
	e := v.(*oracleEntry)
	e.once.Do(func() {
		e.runs.Add(1)
		trs, err := run(cfg, oracle, tenant)
		if err != nil {
			e.err = fmt.Errorf("oracle: %w", err)
			return
		}
		e.tr = trs[0]
	})
	return e.tr, e.err
}

// check runs one cell: cfg under v, every tenant against its oracle.
// The oracles are fetched first, so a scalar-reference cell never
// computes one on the reference kernels.
func check(t *testing.T, cfg Config, v Variant) {
	t.Helper()
	wants := make([]Trace, v.tenants())
	for tn := range wants {
		tr, err := oracleTrace(cfg, tn)
		if err != nil {
			t.Fatal(err)
		}
		wants[tn] = tr
	}
	got, err := run(cfg, v, 0)
	if err != nil {
		t.Fatal(err)
	}
	for tn, want := range wants {
		g := got[tn]
		if v.Paper {
			want, g = want.closure(cfg.Beats), g.closure(cfg.Beats)
		}
		if err := diff(want, g); err != nil {
			t.Fatalf("tenant %d: %v", tn, err)
		}
	}
}
