// Package gvss implements a synchronous graded verifiable secret sharing
// scheme, the substrate the paper's common coin is built on (Section 2.1,
// Observation 2.1, citing Feldman–Micali).
//
// One Instance covers a full "dealing session": every node simultaneously
// acts as a dealer, sharing a vector of n secrets — dealer d's secret
// number t is d's contribution to target node t's "lottery ticket" in the
// common-coin layer above (package coin). Each (dealer, target) secret is
// shared with a symmetric bivariate polynomial of degree f.
//
// Rounds (one per beat when driven by the ss-Byz-Coin-Flip pipeline):
//
//	1 share   dealer d sends node i its row polynomials g_{d,t,i}(x) = B_{d,t}(x, i+1)
//	2 echo    node i sends node j the cross points g_{d,t,i}(j+1) for all (d,t);
//	          on delivery each node row-fixes: if its own row disagrees with
//	          the echoes, it re-decodes its row from the echo points (they
//	          lie on the node's row by symmetry), tolerating f errors
//	3 vote    node i broadcasts, per (d,t), whether it holds a validated row
//	          (original or fixed) consistent with >= n-f echo points;
//	          on delivery grades are assigned: 2 with >= n-f OK votes,
//	          1 with >= f+1, else 0
//	recover   (driven later by the coin layer, after its accept round)
//	          node i broadcasts its share g_{d,t,i}(0) for every dealing;
//	          on delivery each secret is reconstructed by Berlekamp–Welch,
//	          tolerating the f Byzantine shares
//
// Grade semantics (validated by tests): an honest dealer's dealings reach
// grade 2 at every honest node with exact, identical recovery; and if any
// honest node assigns grade 2, every honest node assigns grade >= 1.
//
// Substitution note: full Feldman–Micali GVSS adds
// complaint/accusation rounds that make recovery consistent for
// *every* grade-2 dealing even against arbitrary row-geometry attacks by a
// Byzantine dealer colluding with Byzantine echoers. We replace those
// rounds with echo-based row fixing, which preserves the properties above
// for honest dealers unconditionally and is validated empirically against
// the implemented adversary suite (experiment E2).
package gvss

import (
	"math/rand"
	"sync"

	"ssbyzclock/internal/field"
	"ssbyzclock/internal/pool"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/shamir"
)

// Grade levels assigned to each (dealer, target) dealing after the vote
// round. GradeNone means the dealing is worthless; GradeLow means at least
// one honest node may rely on it; GradeHigh guarantees every honest node
// assigned at least GradeLow.
const (
	GradeNone uint8 = 0
	GradeLow  uint8 = 1
	GradeHigh uint8 = 2
)

// Rounds is the number of send-and-receive rounds an Instance needs before
// Recovered returns final values: share, echo, vote, recover.
const Rounds = 4

// The four round messages (and coin.AcceptMsg) travel in pointer form
// only — their Kind methods have pointer receivers, so a value is not a
// proto.Message. Compose paths lease the message structs, their send
// lists and their payloads from the node's beat pool, legal because
// messages are valid only for their beat (proto.Message); receivers
// type-assert the pointer. Every n×n matrix is one flat row-major slice:
// entry (dealer d, target t) is at index d*n+t, and a receiver drops a
// matrix whose length is not n².

// ShareMsg is the dealer's round-1 message to one node: for each target t,
// the row polynomial of the bivariate sharing of secret (dealer, t).
type ShareMsg struct {
	Rows []field.Poly // [target][coefficient], each of length f+1
}

// Kind implements proto.Message.
func (*ShareMsg) Kind() string { return "gvss.share" }

// EchoMsg is node i's round-2 message to node j: Vals[d*n+t] is
// g_{d,t,i}(j+1), the cross-check point of i's row for dealing (d,t).
// Has[d*n+t] marks dealings for which i actually received a row; entries
// without it carry zero and must be skipped by the receiver (a silent
// dealer must not be mistaken for one dealing the zero polynomial).
type EchoMsg struct {
	Vals []field.Elem
	Has  []bool
}

// Kind implements proto.Message.
func (*EchoMsg) Kind() string { return "gvss.echo" }

// VoteMsg is node i's round-3 broadcast: OK[d*n+t] reports whether i
// holds a validated row for dealing (d,t).
type VoteMsg struct {
	OK []bool
}

// Kind implements proto.Message.
func (*VoteMsg) Kind() string { return "gvss.vote" }

// RecoverMsg is node i's recover-round broadcast: Shares[d*n+t] is i's
// share g_{d,t,i}(0) of secret (d,t). HasRow[d*n+t] marks entries for
// which i actually holds a validated row; others carry zero and are
// skipped by receivers.
type RecoverMsg struct {
	Shares []field.Elem
	HasRow []bool
}

// Kind implements proto.Message.
func (*RecoverMsg) Kind() string { return "gvss.recover" }

// Instance is one node's state for one dealing session. The zero value is
// not usable; construct with New. Instances are not safe for concurrent
// use; the simulation engine and runtime drive each node sequentially.
//
// The struct holds ONLY state the protocol requires to persist across
// rounds: the dealt bivariates (leased, released once shared), the row /
// grade / recovery matrices and, within a beat, the compose→deliver echo
// cache. Outgoing messages are beat-scoped, not session-scoped: each
// Compose* leases its message structs and send list from the node's
// beat pool (see the message kinds below), so no instance keeps message
// slots between rounds. Everything whose lifetime is a single method
// call — tally counters, per-sender pointer tables, the happy-path
// secret decoder — lives in a process-wide scratch pool (see scratch
// below) shared by every instance of the same shape, because a
// multiplexed service keeps tens of instances per tenant resident and
// per-call scratch multiplied by 5 pipeline slots × n nodes × T tenants
// was the largest single slice of resident memory. All matrices are flat
// row-major (index d*n+t).
type Instance struct {
	env proto.Env

	// Dealer state: my secret contributions, one bivariate per target,
	// leased from a process-wide slab pool. ComposeShare releases the
	// slab once the rows are computed — the coefficients are never read
	// again — leaving only dealtSecrets (the n constant terms) resident
	// for DealtSecret and coin-quality measurements.
	dealt        *dealtSlab
	dealtSecrets []field.Elem

	// rowLen[d*n+t] encodes my (possibly fixed) row for dealing (d,t):
	// 0 when missing or invalid, else 1+L where L is the row's
	// coefficient count (fixed rows may be trimmed below f+1, down to
	// the zero polynomial at L = 0). Every row — delivered or fixed —
	// lives in its fixed-stride slot of the flat rowData backing, so one
	// byte per dealing replaces what was a slice header per dealing:
	// at T tenants × pipeline instances × n² dealings, those headers
	// were the single largest entry in the resident-footprint profile.
	// The row accessor materializes the view. rowOKFlat mirrors validity
	// after the echo round.
	rowLen    []uint8
	rowData   []field.Elem // n*n slots of f+1 coefficients each
	rowOKFlat []bool

	gradesFlat []uint8 // [d*n+t], valid after DeliverVote

	recoveredFlat []field.Elem // valid after DeliverRecover where recOK
	recOKFlat     []bool

	// me is the shared batch-evaluation table for the session's share
	// points 1..n: every row evaluation in the share, echo and recover
	// rounds goes through it in one pass per row instead of n independent
	// Poly.Eval calls. The table is immutable and shared process-wide.
	me *field.MultiEval

	// echoBuf caches the compose-echo evaluations between ComposeEcho and
	// DeliverEcho — which runs later the same beat and needs exactly these
	// values to count echo agreement — so delivery reads them instead of
	// re-evaluating, halving the echo round's evaluation work; DeliverEcho
	// then drops it. It is a beat lease from env.Pool, taken by every
	// ComposeEcho and never held across a beat, so a pipeline full of
	// instances pins none; echoCache returns its views. Entries for
	// dealings without a row are stale and guarded by rowLen[dt] != 0
	// (stale pool contents are therefore never read); nil means no
	// compose this beat, and DeliverEcho then evaluates afresh.
	echoBuf []field.Elem
}

// A round's payloads, message structs and send list all come from
// env.Pool (fresh allocations when nil: sim.PoolOff, direct harness
// use), so the sends a Compose* returns are valid until the pool's next
// Recycle. Pooled memory carries arbitrary recycled contents; every
// compose path fully overwrites — or explicitly clears — what it
// exposes, which keeps pooled and unpooled seeded runs byte-identical.
// The message kinds are the round messages' only kinds: package wire's
// Decoder leases decoded messages from them too.
var (
	ShareKind   = pool.NewKind(ShareMsg{})
	EchoKind    = pool.NewKind(EchoMsg{})
	VoteKind    = pool.NewKind(VoteMsg{})
	RecoverKind = pool.NewKind(RecoverMsg{})
)

// New creates the per-node state for one session and draws this node's
// dealer secrets from rng.
func New(env proto.Env, rng *rand.Rand) *Instance {
	n, f := env.N, env.F
	w := f + 1
	ins := &Instance{env: env}
	// One element block backs the row slots, the recovery matrix and the
	// dealt secrets; one bool block backs both validity matrices.
	elems := make([]field.Elem, n*n*w+n*n+n)
	ins.rowData = elems[: n*n*w : n*n*w]
	ins.recoveredFlat = elems[n*n*w : n*n*w+n*n : n*n*w+n*n]
	ins.dealtSecrets = elems[n*n*w+n*n:]
	bools := make([]bool, 2*n*n)
	ins.rowOKFlat = bools[: n*n : n*n]
	ins.recOKFlat = bools[n*n:]
	bytes := make([]uint8, 2*n*n)
	ins.rowLen = bytes[: n*n : n*n]
	ins.gradesFlat = bytes[n*n:]
	ins.me = field.MultiEvalFor(n, f)
	ins.leaseDealt(rng)
	return ins
}

// broadcast leases a 1-entry send list addressing m to every node.
func (ins *Instance) broadcast(m proto.Message) []proto.Send {
	sends := proto.Sends(ins.env.Pool, 1)
	sends[0] = proto.Send{To: proto.Broadcast, Msg: m}
	return sends
}

// rowSlot returns the flat-backing slot for dealing (d,t), full-capacity
// so a copied row cannot bleed into its neighbor.
func (ins *Instance) rowSlot(d, t int) field.Poly {
	w := ins.env.F + 1
	base := (d*ins.env.N + t) * w
	return field.Poly(ins.rowData[base : base+w : base+w])
}

// row materializes the held row for dealing index dt from its rowData
// slot and rowLen entry; nil when no row is held. A present-but-trimmed
// zero polynomial yields a non-nil empty slice, matching the decode
// results the fix path stores.
func (ins *Instance) row(dt int) field.Poly {
	l := ins.rowLen[dt]
	if l == 0 {
		return nil
	}
	w := ins.env.F + 1
	base := dt * w
	return field.Poly(ins.rowData[base : base+int(l)-1 : base+w])
}

// Reset re-initializes the instance for a fresh dealing session, reusing
// every backing allocation; it reports false (leaving the instance
// untouched) when the environment shape differs, in which case the caller
// must construct a new instance. Fresh dealer secrets are drawn from rng
// with the same consumption pattern as New, so a recycled session is
// indistinguishable from a newly constructed one under a fixed seed.
func (ins *Instance) Reset(env proto.Env, rng *rand.Rand) bool {
	if ins.env.N != env.N || ins.env.F != env.F {
		return false
	}
	ins.env = env
	ins.leaseDealt(rng)
	for i := range ins.rowLen {
		ins.rowLen[i] = 0
	}
	for i := range ins.rowOKFlat {
		ins.rowOKFlat[i] = false
		ins.recOKFlat[i] = false
	}
	for i := range ins.gradesFlat {
		ins.gradesFlat[i] = GradeNone
	}
	for i := range ins.recoveredFlat {
		ins.recoveredFlat[i] = 0
	}
	ins.echoBuf = nil
	return true
}

// DealtSecret returns the secret this node dealt for the given target.
// Used by tests and by coin-quality measurements. Valid for the whole
// session even after ComposeShare releases the bivariate slab.
func (ins *Instance) DealtSecret(target int) field.Elem {
	return ins.dealtSecrets[target]
}

// dealtSlab is a leased set of n dealer bivariates. Slabs cycle through
// a process-wide pool: an instance holds one only from New/Reset until
// its ComposeShare has computed the outgoing rows — after that the
// coefficients are never read again (recovery decodes from delivered
// shares), so keeping n (f+1)×(f+1) matrices resident per instance per
// tenant would be pure waste.
type dealtSlab struct {
	n, f int
	bs   []*shamir.Bivariate
}

// dealtSlabPool is one of the two process-wide pools left in this
// package, and not a beat lease, because a slab outlives its beat: New
// or Reset draws it at beat r's Deliver (the pipeline admits a fresh
// instance there) and ComposeShare reads it at beat r+1, across the
// pool's Recycle. Drawing it later instead would move the env.Rng draws,
// hence change every seeded run.
var dealtSlabPool sync.Pool

// leaseDealt installs freshly randomized dealer bivariates, reusing a
// pooled slab of the right shape when one is available, and records the
// dealt secrets. Both paths consume rng identically — one secret draw
// then the coefficient draws, per target, exactly as New always did —
// so pooling is invisible to seeded replay. Callable with a slab still
// held (Reset before ComposeShare): the held slab is re-randomized.
func (ins *Instance) leaseDealt(rng *rand.Rand) {
	n, f := ins.env.N, ins.env.F
	s := ins.dealt
	if s == nil {
		if p, ok := dealtSlabPool.Get().(*dealtSlab); ok && p.n == n && p.f == f {
			s = p
		}
	}
	if s == nil {
		s = &dealtSlab{n: n, f: f, bs: make([]*shamir.Bivariate, n)}
		for t := 0; t < n; t++ {
			s.bs[t] = shamir.NewBivariate(rng, f, field.Reduce(rng.Uint64()))
			ins.dealtSecrets[t] = s.bs[t].Secret()
		}
		ins.dealt = s
		return
	}
	for t := 0; t < n; t++ {
		s.bs[t].Randomize(rng, field.Reduce(rng.Uint64()))
		ins.dealtSecrets[t] = s.bs[t].Secret()
	}
	ins.dealt = s
}

// releaseDealt returns the bivariate slab to the pool; the next lessee
// fully re-randomizes it.
func (ins *Instance) releaseDealt() {
	if ins.dealt != nil {
		dealtSlabPool.Put(ins.dealt)
		ins.dealt = nil
	}
}

// scratch is the per-call working state shared by every Instance of the
// same (n, f) shape: tally counters, per-sender pointer tables, and the
// recover round's secret decoder. Each public round method checks one
// out of the process-wide pool on entry and returns it before returning,
// so a resident fleet of instances holds ZERO copies between calls — the
// pool's working set is one scratch per concurrently-delivering worker.
// Every field is written before it is read within a call (the deliver
// paths clear what they tally into), so scratch reuse is invisible to
// seeded replay.
type scratch struct {
	n, f int
	// Point-collection and batch-eval scratch for the fix/decode loops.
	xs, ys []field.Elem
	ev     []field.Elem
	// Per-sender flat matrix pointers for the echo and recover rounds
	// (nil-cleared at the start of each deliver).
	matE [][]field.Elem
	matB [][]bool
	// counts is the n² echo-agreement or vote tally, cleared by the
	// deliver that fills it. uint64 so the echo sweep's wrapping ±1 adds
	// (field.SweepTally) settle to the exact non-negative count by the
	// time the resolution loop reads it.
	counts []uint64
	// seen is the per-sender dedup bitmap (cleared per deliver).
	seen []bool
	// Per-dealer row pointer tables and the grid-decode input list.
	rowPtrE   [][]field.Elem
	rowPtrB   [][]bool
	gridPtr   [][]field.Elem
	senderIdx []int
	// dec fuses the recover round's repeated-sender-set decodes through
	// cached basis tables (lazily bound to the session's point set; the
	// tables themselves are interned process-wide).
	dec *field.SecretDecoder
}

// scratchPool is the other process-wide pool, and not a beat lease:
// a scratch lives for one method call, not a beat, so one per
// concurrently running call serves every instance, and it carries its
// cached SecretDecoder binding from call to call.
var scratchPool sync.Pool

func getScratch(n, f int) *scratch {
	if sc, ok := scratchPool.Get().(*scratch); ok && sc.n == n && sc.f == f {
		return sc
	}
	sc := &scratch{n: n, f: f}
	sc.xs = make([]field.Elem, 0, n)
	sc.ys = make([]field.Elem, 0, n)
	sc.ev = make([]field.Elem, n)
	sc.matE = make([][]field.Elem, n)
	sc.matB = make([][]bool, n)
	sc.counts = make([]uint64, n*n)
	sc.seen = make([]bool, n)
	sc.rowPtrE = make([][]field.Elem, n)
	sc.rowPtrB = make([][]bool, n)
	sc.gridPtr = make([][]field.Elem, 0, n)
	sc.senderIdx = make([]int, 0, n)
	return sc
}

// putScratch returns sc to the pool, dropping the delivered-payload
// pointers it captured so a parked scratch does not pin beat-pool
// buffers (or whole inboxes) beyond their beat.
func putScratch(sc *scratch) {
	clear(sc.matE)
	clear(sc.matB)
	clear(sc.rowPtrE)
	clear(sc.rowPtrB)
	clear(sc.gridPtr[:cap(sc.gridPtr)])
	scratchPool.Put(sc)
}

// decoder returns the scratch's secret decoder bound to the given point
// set, rebinding when the previous checkout was a different session
// shape.
func (sc *scratch) decoder(me *field.MultiEval) *field.SecretDecoder {
	if sc.dec == nil || sc.dec.ME() != me {
		sc.dec = field.NewSecretDecoder(me)
	}
	return sc.dec
}

// ComposeShare produces round 1: this node, as dealer, sends each node its
// row polynomials for all n target secrets. Each message's n rows are
// sliced out of one flat backing array (2 allocations per destination
// instead of n+1), and the rows themselves are computed batched: the
// coefficient of x^k in destination i's row for target t is the row
// coefficient vector C_t[k] evaluated at i+1, so one MultiEval pass per
// (t, k) fills that coefficient for all n destinations at once.
func (ins *Instance) ComposeShare() []proto.Send {
	n, f := ins.env.N, ins.env.F
	w := f + 1
	if ins.dealt == nil {
		// One compose per session: the slab was already released. Re-lease
		// is impossible (the rng draws are gone), so fail loudly rather
		// than silently sending different rows.
		panic("gvss: ComposeShare called twice in one session")
	}
	// One element block and one row-header block for all n messages: the
	// destinations' payloads have identical lifetimes (this beat), so they
	// share one lease from the node's beat pool. Every element is written
	// below, so recycled contents never leak. Destination i's rows are
	// the block's i-th stride of n·w elements.
	elems := ins.env.Pool.Elems(n * n * w)
	rowHdrs := ins.env.Pool.Polys(n * n)
	msgs := pool.Lease(ins.env.Pool, ShareKind, n)
	sends := proto.Sends(ins.env.Pool, n)
	for i := 0; i < n; i++ {
		rows := rowHdrs[i*n : (i+1)*n : (i+1)*n]
		for t := 0; t < n; t++ {
			base := (i*n + t) * w
			rows[t] = field.Poly(elems[base : base+w : base+w])
		}
		msgs[i].Rows = rows
		sends[i] = proto.Send{To: i, Msg: &msgs[i]}
	}
	// Evaluate all n·w coefficient polynomials at all n points with one
	// full-width kernel call per destination: the payload block is
	// contiguous with destination-major stride n·w, and flats[i][t*w+k] =
	// c_{t,k}(x_i) is exactly EvalGridT's transposed output for the
	// polynomial family indexed r = t*w+k. This replaces n·w narrow
	// EvalInto calls plus an n²·w strided scatter.
	nR := n * w
	coefG := ins.env.Pool.Elems(w * nR)
	gemm := true
	for t := 0; t < n && gemm; t++ {
		c := ins.dealt.bs[t].C
		for k := 0; k < w; k++ {
			row := c[k]
			if len(row) != w {
				gemm = false
				break
			}
			for k2 := 0; k2 < w; k2++ {
				coefG[k2*nR+t*w+k] = row[k2]
			}
		}
	}
	if gemm {
		ins.me.EvalGridT(elems[:n*nR], coefG, w, nR)
	} else {
		// Defensive fallback (dealt rows are always w long): per-poly
		// evaluation with the strided scatter.
		sc := getScratch(n, f)
		for t := 0; t < n; t++ {
			c := ins.dealt.bs[t].C
			for k := 0; k < w; k++ {
				ins.me.EvalInto(sc.ev, field.Poly(c[k]))
				for i := 0; i < n; i++ {
					elems[i*nR+t*w+k] = sc.ev[i]
				}
			}
		}
		putScratch(sc)
	}
	ins.releaseDealt() // the dealt coefficients are fully consumed
	return sends
}

// DeliverShare ingests round-1 messages: rows[d][t] for each dealer d that
// sent a well-formed share message.
func (ins *Instance) DeliverShare(inbox []proto.Recv) {
	n, f := ins.env.N, ins.env.F
	sc := getScratch(n, f)
	defer putScratch(sc)
	seen := sc.seen
	for i := range seen {
		seen[i] = false
	}
	for _, r := range inbox {
		m, ok := r.Msg.(*ShareMsg)
		if !ok || r.From < 0 || r.From >= n || len(m.Rows) != n {
			continue
		}
		if seen[r.From] {
			// A (Byzantine) duplicate may not clobber already-installed
			// rows with a half-copied invalid message, so it runs the
			// fused validator in validate-only mode before any copy.
			if !rowsValid(m.Rows, f+1) {
				continue
			}
			for t := 0; t < n; t++ {
				copy(ins.rowSlot(r.From, t), m.Rows[t])
				ins.rowLen[r.From*n+t] = uint8(1 + f + 1)
			}
			continue
		}
		seen[r.From] = true
		ins.installRows(r.From, m.Rows)
	}
}

// rowsValid is the fused row validator: one branch-free pass OR-
// accumulating a validity mask over whole rows (see elemsValid for the
// hi/borrow range check); only the per-row length check branches.
func rowsValid(rows []field.Poly, w int) bool {
	const max = uint64(field.P - 1)
	var hi, borrow uint64
	for _, row := range rows {
		if len(row) != w {
			return false
		}
		for _, e := range row {
			hi |= uint64(e)
			borrow |= max - uint64(e)
		}
	}
	return hi>>31 == 0 && borrow>>63 == 0
}

// installRows is the first-sender share path: validate and copy fused
// into one pass over the (cache-cold) payload, accumulating the same
// mask as rowsValid while the copy streams. Only when the mask trips —
// a Byzantine sender — does the slow uninstall path run, so the
// observable behavior matches validate-then-copy. Reports whether the
// rows were installed.
func (ins *Instance) installRows(d int, rows []field.Poly) bool {
	n, w := ins.env.N, ins.env.F+1
	const max = uint64(field.P - 1)
	var hi, borrow uint64
	for t := 0; t < n; t++ {
		row := rows[t]
		if len(row) != w {
			ins.uninstallRows(d)
			return false
		}
		slot := ins.rowSlot(d, t)
		for i, e := range row {
			hi |= uint64(e)
			borrow |= max - uint64(e)
			slot[i] = e
		}
		ins.rowLen[d*n+t] = uint8(1 + w)
	}
	if hi>>31 != 0 || borrow>>63 != 0 {
		ins.uninstallRows(d)
		return false
	}
	return true
}

func (ins *Instance) uninstallRows(d int) {
	n := ins.env.N
	for t := 0; t < n; t++ {
		ins.rowLen[d*n+t] = 0
	}
}

// gatherCoefT transposes every held row's coefficients into the
// degree-major layout EvalGridT consumes — coefT[k*n²+dt] = row_dt[k],
// zero-padded, so trimmed fixed rows evaluate identically — carved
// from the tail of the leased echo buffer. Callers must have verified
// every row is held; rowLen bounds every length at f+1 by construction.
func (ins *Instance) gatherCoefT() []field.Elem {
	n, w := ins.env.N, ins.env.F+1
	nn := n * n
	coefT := ins.echoBuf[2*n*nn : 2*n*nn+w*nn]
	rowLen := ins.rowLen
	rowData := ins.rowData
	// k-outer order keeps the destination writes sequential (the strided
	// accesses fall on the reads, which all hit the compact row storage).
	for k := 0; k < w; k++ {
		dst := coefT[k*nn : (k+1)*nn]
		for dt, l := range rowLen {
			if k < int(l)-1 {
				dst[dt] = rowData[dt*w+k]
			} else {
				dst[dt] = 0
			}
		}
	}
	return coefT
}

// ComposeEcho produces round 2: cross-check points of my rows, one message
// per destination node. Destination j's two n×n matrices are the j-th n²
// windows of one element block and one bool block for all n messages.
// Each held row is evaluated at all n destinations in one MultiEval pass,
// directly into the instance's echoVals cache, which DeliverEcho reuses
// for agreement counting later the same beat.
func (ins *Instance) ComposeEcho() []proto.Send {
	n := ins.env.N
	nn := n * n
	echoVals, echoValsT := ins.leaseEchoCache()
	// Shared backing blocks for all n messages (see ComposeShare), leased
	// from the node's beat pool.
	elems := ins.env.Pool.Elems(n * nn)
	bools := ins.env.Pool.Bools(n * nn)
	msgs := pool.Lease(ins.env.Pool, EchoKind, n)
	sends := proto.Sends(ins.env.Pool, n)
	for j := 0; j < n; j++ {
		msgs[j].Vals = elems[j*nn : (j+1)*nn : (j+1)*nn]
		msgs[j].Has = bools[j*nn : (j+1)*nn : (j+1)*nn]
		sends[j] = proto.Send{To: j, Msg: &msgs[j]}
	}
	// Count the held rows up front: the steady state (every row held)
	// takes the grid-evaluation fast path below; anything sparser falls
	// back to per-row evaluation plus scattering.
	held := 0
	for _, l := range ins.rowLen {
		if l != 0 {
			held++
		}
	}
	if held == nn {
		// Steady state: evaluate the whole row family directly in
		// transposed order — for each destination j, ONE full-width
		// kernel call computes row_{d,t}(j+1) for all n² dealings
		// straight into echoValsT's sender-major layout, which is
		// simultaneously the destination-j payload and the exact
		// sequential stream DeliverEcho's fused sweep reads. This
		// replaces n² narrow per-row evaluations plus an n³ strided
		// transpose. The row-major echoVals cache is left stale, which
		// is safe: the cached delivery path only reads echoValsT (the
		// fix path reads the delivered matrices themselves).
		coefT := ins.gatherCoefT()
		ins.me.EvalGridT(echoValsT, coefT, ins.env.F+1, nn)
		// Destination j's payload is echoValsT's slab j (the transposed
		// layout IS the per-destination sender-major matrix), and every
		// presence flag is true since every row was held.
		copy(elems, echoValsT)
		for i := range bools {
			bools[i] = true
		}
	} else {
		// Pass 1: evaluate every held row at all n points, streaming into
		// the contiguous echoVals cache.
		for idx := 0; idx < nn; idx++ {
			if row := ins.row(idx); row != nil {
				ins.me.EvalInto(echoVals[idx*n:(idx+1)*n], row)
			}
		}
		// Pass 2: scatter into the per-destination payloads. Entries
		// without a row stay zero with has=false, so the leased blocks
		// must be scrubbed of their recycled contents before scattering —
		// stale bytes here would leak into the wire encoding and break
		// pooled/unpooled replay equivalence.
		clear(elems)
		clear(bools)
		for idx := 0; idx < nn; idx++ {
			if ins.rowLen[idx] == 0 {
				continue
			}
			slot := echoVals[idx*n : (idx+1)*n]
			for j := 0; j < n; j++ {
				elems[j*nn+idx] = slot[j]
				bools[j*nn+idx] = true
			}
		}
		// Retain the transposed evaluations: destination j's payload IS
		// the sender-major row the delivery sweep wants (for the loopback
		// matrix it will receive from sender j), so one copy saves
		// DeliverEcho a strided n³ re-transpose.
		copy(echoValsT, elems)
	}
	return sends
}

// leaseEchoCache leases a fresh echoBuf from the node's beat pool — n³
// evaluations, their n³ transpose, gatherCoefT's (f+1)·n² tail — and
// returns its echoCache views.
func (ins *Instance) leaseEchoCache() (vals, valsT []field.Elem) {
	n := ins.env.N
	ins.echoBuf = ins.env.Pool.Elems(2*n*n*n + (ins.env.F+1)*n*n)
	return ins.echoCache()
}

// echoCache returns echoBuf's two views: vals, row_{d,t}(j+1) at
// [(d*n+t)*n + j], and valsT, sender-major [j*n*n + d*n+t]: the exact
// per-destination payload ComposeEcho scatters, kept so DeliverEcho's
// fused validate+tally sweep streams one sequential row per sender.
func (ins *Instance) echoCache() (vals, valsT []field.Elem) {
	n3 := ins.env.N * ins.env.N * ins.env.N
	b := ins.echoBuf
	return b[:n3:n3], b[n3 : 2*n3 : 2*n3]
}

// DeliverEcho ingests round-2 messages and row-fixes: for each dealing,
// the echo points sent to me lie (by bivariate symmetry) on my own row, so
// a row that disagrees with the quorum is re-decoded from the echoes,
// tolerating f Byzantine points. rowOKFlat[d*n+t] records whether I now hold a
// row consistent with at least n-f echo points.
//
// Delivery is a fused validate+tally sweep: each matrix is traversed
// exactly once, OR-accumulating the element-validity mask while counting
// agreement with my rows' compose-time evaluations. The slow rollback
// path (subtracting a matrix's tallies back out) only runs when the mask
// trips — a Byzantine sender — or a duplicate replaces an installed
// matrix, so honest traffic never branches per element.
func (ins *Instance) DeliverEcho(inbox []proto.Recv) {
	n, f := ins.env.N, ins.env.F
	quorum := ins.env.Quorum()
	sc := getScratch(n, f)
	defer putScratch(sc)
	// The tally sweep compares delivered points against my rows' values
	// at every sender's point — exactly what ComposeEcho evaluated and
	// transposed into echoValsT this beat. Without a matching compose
	// (direct harness use), fill the caches now so delivery has one
	// uniform path.
	if ins.echoBuf == nil {
		echoVals, echoValsT := ins.leaseEchoCache()
		clear(echoValsT)
		for idx := 0; idx < n*n; idx++ {
			if row := ins.row(idx); row != nil {
				slot := echoVals[idx*n : (idx+1)*n]
				ins.me.EvalInto(slot, row)
				for j := 0; j < n; j++ {
					echoValsT[j*n*n+idx] = slot[j]
				}
			}
		}
	}
	agree := sc.counts
	ins.deliverEchoTally(sc, inbox, agree)
	// The compose-time evaluations are dead after the sweep; the lease
	// itself ends at the pool's next Recycle.
	ins.echoBuf = nil
	echo := sc.matE
	echoHas := sc.matB
	// Hoist the present-sender list once, and per dealer the senders' row
	// slices, so the (rare) fix path indexes flat rows instead of chasing
	// three levels of slice headers.
	senders := sc.senderIdx[:0]
	for w := 0; w < n; w++ {
		if echo[w] != nil {
			senders = append(senders, w)
		}
	}
	sc.senderIdx = senders
	evRow := sc.rowPtrE
	hasRow := sc.rowPtrB
	for d := 0; d < n; d++ {
		for i, w := range senders {
			evRow[i] = echo[w][d*n : (d+1)*n]
			hasRow[i] = echoHas[w][d*n : (d+1)*n]
		}
		for t := 0; t < n; t++ {
			if ins.rowLen[d*n+t] != 0 && agree[d*n+t] >= uint64(quorum) {
				ins.rowOKFlat[d*n+t] = true
				continue
			}
			// Row missing or inconsistent: collect the echo points and try
			// to fix it from them. The fixed row is retained across
			// rounds, so this (rare, Byzantine-only) path uses the
			// allocating DecodeFast.
			xs := sc.xs[:0]
			ys := sc.ys[:0]
			for i, w := range senders {
				if !hasRow[i][t] {
					continue
				}
				xs = append(xs, field.Elem(w+1))
				ys = append(ys, evRow[i][t])
			}
			if len(xs) < quorum {
				continue
			}
			fixed, err := field.DecodeFast(xs, ys, f, f)
			if err != nil {
				continue
			}
			if agreeCount(fixed, xs, ys) >= quorum {
				// Copy the decode result into the dealing's rowData slot
				// (the old row, if any, is exactly what is being replaced)
				// and record its trimmed length.
				slot := ins.rowSlot(d, t)
				clear(slot)
				copy(slot, fixed)
				ins.rowLen[d*n+t] = uint8(1 + len(fixed))
				ins.rowOKFlat[d*n+t] = true
			}
		}
	}
}

// deliverEchoTally is DeliverEcho's sweep phase: it clears agree, then
// tallies into it the echo agreement of every well-formed, canonical
// matrix in the inbox (last valid matrix per sender wins), leaving each
// sender's counted matrix in sc.matE/sc.matB (nil when none). A matrix
// whose length is not n² is dropped before the sweep. Requires the
// compose-time evaluations in echoValsT.
func (ins *Instance) deliverEchoTally(sc *scratch, inbox []proto.Recv, agree []uint64) {
	n := ins.env.N
	nn := n * n
	echo := sc.matE
	echoHas := sc.matB
	clear(echo)
	clear(echoHas)
	clear(agree)
	for _, r := range inbox {
		m, ok := r.Msg.(*EchoMsg)
		if !ok || r.From < 0 || r.From >= n || len(m.Vals) != nn || len(m.Has) != nn {
			continue
		}
		if ins.sweepEcho(agree, r.From, m.Vals, m.Has, false) {
			if echo[r.From] != nil {
				// Duplicate sender: only the LAST valid matrix counts, so
				// back the earlier one's contributions out (rare path).
				ins.sweepEcho(agree, r.From, echo[r.From], echoHas[r.From], true)
			}
			echo[r.From] = m.Vals
			echoHas[r.From] = m.Has
		} else {
			// Validity mask tripped: this matrix contributes nothing, so
			// re-sweep to subtract the tallies just added (rare path);
			// an earlier valid matrix from this sender stays in force.
			ins.sweepEcho(agree, r.From, m.Vals, m.Has, true)
		}
	}
}

// sweepEcho is the fused validate+tally pass over one sender's echo
// matrix: a single traversal OR-accumulates the canonical-range mask
// (the elemsValid hi/borrow trick) while adding ±1 to the agreement
// tally of every (d,t) whose delivered point matches my row's value at
// this sender's coordinate — branch-free via an equality mask and the
// Has bit. It reports whether every element was canonical.
//
// Tallies for dealings without an installed row compare against stale
// echoValsT entries; the counts are deterministic garbage that the
// resolution loop never consults (it checks rowLen first), and a
// rollback re-sweep subtracts the identical values.
func (ins *Instance) sweepEcho(agree []uint64, w0 int, vals []field.Elem, has []bool, negate bool) bool {
	n := ins.env.N
	// My rows' values at sender w0's point, sender-major: one sequential
	// stream, in step with the delivered matrix — the whole n² traversal
	// is a single wide SweepTally call.
	_, valsT := ins.echoCache()
	ev := valsT[w0*n*n : (w0+1)*n*n]
	hi, borrow := field.SweepTally(agree, ev, vals, has, negate)
	return hi>>31 == 0 && borrow>>63 == 0
}

// ComposeVote produces the round-3 broadcast of per-dealing validity.
func (ins *Instance) ComposeVote() []proto.Send {
	n := ins.env.N
	m := &pool.Lease(ins.env.Pool, VoteKind, 1)[0]
	m.OK = ins.env.Pool.Bools(n * n)
	copy(m.OK, ins.rowOKFlat)
	return ins.broadcast(m)
}

// DeliverVote tallies round-3 votes and assigns grades.
func (ins *Instance) DeliverVote(inbox []proto.Recv) {
	n, f := ins.env.N, ins.env.F
	quorum := ins.env.Quorum()
	sc := getScratch(n, f)
	defer putScratch(sc)
	counts := sc.counts
	clear(counts)
	seen := sc.seen
	for i := range seen {
		seen[i] = false
	}
	for _, r := range inbox {
		m, ok := r.Msg.(*VoteMsg)
		if !ok || r.From < 0 || r.From >= n || seen[r.From] || len(m.OK) != n*n {
			continue
		}
		// The whole n² grid tallies in ONE wide sweep.
		seen[r.From] = true
		field.AccumBool(counts, m.OK)
	}
	for dt := 0; dt < n*n; dt++ {
		switch {
		case counts[dt] >= uint64(quorum):
			ins.gradesFlat[dt] = GradeHigh
		case counts[dt] >= uint64(f+1):
			ins.gradesFlat[dt] = GradeLow
		default:
			ins.gradesFlat[dt] = GradeNone
		}
	}
}

// Grade returns the grade assigned to dealing (dealer, target); valid
// after DeliverVote. Out-of-range arguments return GradeNone.
func (ins *Instance) Grade(dealer, target int) uint8 {
	n := ins.env.N
	if dealer < 0 || dealer >= n || target < 0 || target >= n {
		return GradeNone
	}
	return ins.gradesFlat[dealer*n+target]
}

// ComposeRecover produces the recover-round broadcast of my shares
// g_{d,t,me}(0) for every dealing I hold a validated row for.
func (ins *Instance) ComposeRecover() []proto.Send {
	n, f := ins.env.N, ins.env.F
	// Entries without a validated row carry zero/false, so the leased
	// blocks are zero-cleared up front (see ComposeEcho's sparse path).
	p := ins.env.Pool
	m := &pool.Lease(p, RecoverKind, 1)[0]
	*m = RecoverMsg{Shares: p.ElemsZero(n * n), HasRow: p.BoolsZero(n * n)}
	for dt := 0; dt < n*n; dt++ {
		if ins.rowOKFlat[dt] {
			// g(0) is the constant coefficient; rows are canonical
			// (validated on delivery or decoded), so no Horner pass is
			// needed. Fixed rows may be trimmed to the zero polynomial.
			if ins.rowLen[dt] > 1 {
				m.Shares[dt] = ins.rowData[dt*(f+1)]
			}
			m.HasRow[dt] = true
		}
	}
	return ins.broadcast(m)
}

// DeliverRecover reconstructs every dealing's secret from the broadcast
// shares by error-corrected decoding. A dealing whose decode fails is left
// unrecovered; the coin layer substitutes a deterministic default.
func (ins *Instance) DeliverRecover(inbox []proto.Recv) {
	n, f := ins.env.N, ins.env.F
	sc := getScratch(n, f)
	defer putScratch(sc)
	shares := sc.matE // [sender][d*n+t]
	has := sc.matB
	clear(shares)
	clear(has)
	for _, r := range inbox {
		m, ok := r.Msg.(*RecoverMsg)
		if !ok || r.From < 0 || r.From >= n || len(m.Shares) != n*n || len(m.HasRow) != n*n {
			continue
		}
		// One wide range check validates the whole matrix.
		if !elemsValid(m.Shares) {
			continue
		}
		shares[r.From] = m.Shares
		has[r.From] = m.HasRow
	}
	// Hoist the present-sender list; when additionally every present
	// sender claims a share for every dealing (the steady state — counted
	// with one branch-free sweep per sender), the per-dealing point set is
	// constant and the gather loop drops its per-point branches.
	senders := sc.senderIdx[:0]
	claimed := 0
	for w := 0; w < n; w++ {
		if shares[w] == nil {
			continue
		}
		senders = append(senders, w)
		claimed += int(field.CountBool(has[w]))
	}
	sc.senderIdx = senders
	allHas := claimed == len(senders)*n*n
	evRow := sc.rowPtrE
	hasRow := sc.rowPtrB
	dec := sc.decoder(ins.me)
	if allHas && len(senders) >= 2*f+1 {
		m := len(senders)
		xs := sc.xs[:m]
		grids := sc.gridPtr[:0]
		for i, w := range senders {
			xs[i] = field.Elem(w + 1)
			grids = append(grids, shares[w])
		}
		sc.gridPtr = grids
		// Decode the whole n×n dealing grid at once: the senders'
		// matrices go in as-is (column (d,t) is that dealing's share
		// vector) and the grid decoder verifies all n² candidates per
		// suffix sender with one full-width kernel pass — m-f-1 wide
		// passes for the entire round instead of n narrow blocks.
		dec.DecodeAt0Grid(xs, grids[:m], n, n, f, f, ins.recoveredFlat, ins.recOKFlat)
		return
	}
	for d := 0; d < n; d++ {
		for w := 0; w < n; w++ {
			if shares[w] == nil {
				evRow[w], hasRow[w] = nil, nil
			} else {
				evRow[w], hasRow[w] = shares[w][d*n:(d+1)*n], has[w][d*n:(d+1)*n]
			}
		}
		for t := 0; t < n; t++ {
			xs := sc.xs[:0]
			ys := sc.ys[:0]
			for w := 0; w < n; w++ {
				if evRow[w] == nil || !hasRow[w][t] {
					continue
				}
				xs = append(xs, field.Elem(w+1))
				ys = append(ys, evRow[w][t])
			}
			if len(xs) < 2*f+1 {
				continue // cannot tolerate f errors with fewer points
			}
			// Only the constant term is needed, and the present-sender
			// set repeats across the n² dealings, so the fused decoder's
			// cached basis-evaluation tables turn the common case into a
			// handful of short dot products.
			v, err := dec.DecodeAt0(xs, ys, f, f)
			if err != nil {
				continue
			}
			ins.recoveredFlat[d*n+t] = v
			ins.recOKFlat[d*n+t] = true
		}
	}
}

// Recovered returns the reconstructed secret of dealing (dealer, target)
// and whether reconstruction succeeded; valid after DeliverRecover.
func (ins *Instance) Recovered(dealer, target int) (field.Elem, bool) {
	n := ins.env.N
	if dealer < 0 || dealer >= n || target < 0 || target >= n {
		return 0, false
	}
	return ins.recoveredFlat[dealer*n+target], ins.recOKFlat[dealer*n+target]
}

// agreeCount counts the points (xs[i], ys[i]) that lie on p.
func agreeCount(p field.Poly, xs, ys []field.Elem) int {
	c := 0
	for i := range xs {
		if p.Eval(xs[i]) == ys[i] {
			c++
		}
	}
	return c
}

// elemsValid reports whether every element is canonical (< P). The scan
// is branchless (and wide, via field.RangeOr) because it runs over every
// delivered matrix entry and honest traffic never trips it; see RangeOr
// for why the hi/borrow pair is sound over the full uint64 range.
func elemsValid(es []field.Elem) bool {
	hi, borrow := field.RangeOr(es)
	return hi>>31 == 0 && borrow>>63 == 0
}
