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

// ShareMsg is the dealer's round-1 message to one node: for each target t,
// the row polynomial of the bivariate sharing of secret (dealer, t).
//
// The four round messages (and coin.AcceptMsg) travel in value or
// pointer form: compose paths send pointers into per-instance message
// slots whose backing comes from the node's beat pool — legal because
// messages are valid only for their beat (proto.Message) — while
// adversaries and tests hand-build values. Consumers accept both via the
// As* helpers.
type ShareMsg struct {
	Rows []field.Poly // [target][coefficient], each of length f+1
}

// Kind implements proto.Message.
func (ShareMsg) Kind() string { return "gvss.share" }

// AsShare reports whether m is a share message, accepting both forms.
func AsShare(m proto.Message) (ShareMsg, bool) {
	switch v := m.(type) {
	case ShareMsg:
		return v, true
	case *ShareMsg:
		return *v, true
	}
	return ShareMsg{}, false
}

// EchoMsg is node i's round-2 message to node j: Vals[d][t] is
// g_{d,t,i}(j+1), the cross-check point of i's row for dealing (d,t).
// Has[d][t] marks dealings for which i actually received a row; entries
// without it carry zero and must be skipped by the receiver (a silent
// dealer must not be mistaken for one dealing the zero polynomial).
type EchoMsg struct {
	Vals [][]field.Elem // [dealer][target]
	Has  [][]bool       // [dealer][target]
	// ValsFlat/HasFlat are the same matrices in flat row-major form
	// (index d*n+t). When both have length n² they are authoritative and
	// the receiver's fused sweep runs over them directly, one wide pass
	// per matrix; otherwise the receiver gathers the row views. Composed
	// messages always set them aliasing the row views' backing. The wire
	// codec transmits the row views only, so decoded messages take the
	// gather path.
	ValsFlat []field.Elem
	HasFlat  []bool
}

// Kind implements proto.Message.
func (EchoMsg) Kind() string { return "gvss.echo" }

// AsEcho reports whether m is an echo message, accepting both forms.
func AsEcho(m proto.Message) (EchoMsg, bool) {
	switch v := m.(type) {
	case EchoMsg:
		return v, true
	case *EchoMsg:
		return *v, true
	}
	return EchoMsg{}, false
}

// VoteMsg is node i's round-3 broadcast: OK[d][t] reports whether i holds
// a validated row for dealing (d,t).
type VoteMsg struct {
	OK [][]bool // [dealer][target]
	// OKFlat is OK in flat row-major form (index d*n+t); authoritative
	// when its length is n² (see EchoMsg).
	OKFlat []bool
}

// Kind implements proto.Message.
func (VoteMsg) Kind() string { return "gvss.vote" }

// AsVote reports whether m is a vote message, accepting both forms.
func AsVote(m proto.Message) (VoteMsg, bool) {
	switch v := m.(type) {
	case VoteMsg:
		return v, true
	case *VoteMsg:
		return *v, true
	}
	return VoteMsg{}, false
}

// RecoverMsg is node i's recover-round broadcast: Shares[d][t] is i's
// share g_{d,t,i}(0) of secret (d,t). HasRow[d][t] marks entries for which
// i actually holds a validated row; others carry zero and are skipped by
// receivers.
type RecoverMsg struct {
	Shares [][]field.Elem // [dealer][target]
	HasRow [][]bool       // [dealer][target]
	// SharesFlat/HasRowFlat are the flat row-major forms (index d*n+t);
	// authoritative when both have length n² (see EchoMsg).
	SharesFlat []field.Elem
	HasRowFlat []bool
}

// Kind implements proto.Message.
func (RecoverMsg) Kind() string { return "gvss.recover" }

// AsRecover reports whether m is a recover message, accepting both forms.
func AsRecover(m proto.Message) (RecoverMsg, bool) {
	switch v := m.(type) {
	case RecoverMsg:
		return v, true
	case *RecoverMsg:
		return *v, true
	}
	return RecoverMsg{}, false
}

// Instance is one node's state for one dealing session. The zero value is
// not usable; construct with New. Instances are not safe for concurrent
// use; the simulation engine and runtime drive each node sequentially.
//
// The struct holds ONLY state the protocol requires to persist across
// rounds: the dealt bivariates (leased, released once shared), the row /
// grade / recovery matrices, the compose→deliver echo cache, and the
// persistent message slots. Everything whose lifetime is a single method
// call — gather/stage buffers, tally counters, per-sender pointer
// tables, the happy-path secret decoder — lives in a process-wide
// scratch pool (see scratch below) shared by every instance of the same
// shape, because a multiplexed service keeps tens of instances per
// tenant resident and per-call scratch multiplied by 5 pipeline slots ×
// n nodes × T tenants was the largest single slice of resident memory.
// All matrices are flat row-major (index d*n+t); tests index the flats.
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

	// echoVals caches the compose-echo evaluations row_{d,t}(j+1) laid
	// out [(d*n+t)*n + j]. ComposeEcho fills it; DeliverEcho — which runs
	// later the same beat and needs exactly these values to count echo
	// agreement — reads it instead of re-evaluating, halving the echo
	// round's evaluation work, then releases it. The n³ buffers are
	// checked out of a process-wide pool only for that compose→deliver
	// window, so a pipeline full of instances does not pin one per slot.
	// Entries for dealings without a row are stale and guarded by
	// rowLen[dt] != 0 (stale pool contents are therefore never read);
	// echoCached gates the whole cache so a Deliver without a matching
	// Compose falls back to fresh evaluation.
	echoVals   []field.Elem
	echoCached bool
	// echoValsT is echoVals transposed to sender-major [j*n*n + d*n+t] —
	// the exact per-destination payload ComposeEcho scatters, retained so
	// DeliverEcho's fused validate+tally sweep streams one sequential row
	// per sender instead of striding through echoVals. Both views are
	// carved from echoBuf, a single 2n³ pool checkout, so the pool sees
	// one Get/Put per echo round.
	echoValsT []field.Elem
	echoBuf   *[]field.Elem

	// echoAgree[d*n+t] is the echo agreement tally the fused
	// validate+tally sweep accumulates per delivered matrix. uint64 so
	// the sweep's wrapping ±1 adds (field.SweepTally) settle to the
	// exact non-negative count by the time the resolution loop reads it.
	// Kept on the instance (not call scratch) as the white-box surface
	// the sweep differential tests assert against after DeliverEcho.
	echoAgree []uint64

	// coefShare holds ComposeShare's pooled degree-major coefficient
	// gather between a deferred enqueue (env.Batch non-nil) and the
	// driver's batch flush, which releases it via FinishEval(finishCoef).
	// The immediate path releases it before ComposeShare returns, so at
	// steady state no resident instance pins a gather block.
	coefShare *[]field.Elem

	// batchElems/batchBools hold ComposeEcho's leased payload blocks
	// between a deferred enqueue (env.Batch non-nil) and FinishEval,
	// which runs the payload copies the immediate path does inline.
	batchElems []field.Elem
	batchBools []bool

	// Persistent message slots and send lists for the four rounds. Each
	// Compose* overwrites its slots' slice headers (pointing them at
	// beat-pooled backing) and returns the prebuilt send list whose Msg
	// pointers never change — so composing is free of interface-boxing
	// allocations. Legal under the message-lifetime contract: by the time
	// a slot is rewritten (this instance's next session at the earliest),
	// the previous message is long dead. The four send lists are windows
	// of one backing array (sends).
	shareMsgs    []ShareMsg
	shareSends   []proto.Send
	echoMsgs     []EchoMsg
	echoSends    []proto.Send
	voteMsg      VoteMsg
	voteSends    []proto.Send
	recoverMsg   RecoverMsg
	recoverSends []proto.Send
}

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
	ins.echoAgree = make([]uint64, n*n)
	ins.me = field.MultiEvalFor(n, f)
	ins.leaseDealt(rng)
	ins.shareMsgs = make([]ShareMsg, n)
	ins.echoMsgs = make([]EchoMsg, n)
	sends := make([]proto.Send, 2*n+2)
	ins.shareSends = sends[:n:n]
	ins.echoSends = sends[n : 2*n : 2*n]
	ins.voteSends = sends[2*n : 2*n+1 : 2*n+1]
	ins.recoverSends = sends[2*n+1:]
	for i := 0; i < n; i++ {
		ins.shareSends[i] = proto.Send{To: i, Msg: &ins.shareMsgs[i]}
		ins.echoSends[i] = proto.Send{To: i, Msg: &ins.echoMsgs[i]}
	}
	ins.voteSends[0] = proto.Send{To: proto.Broadcast, Msg: &ins.voteMsg}
	ins.recoverSends[0] = proto.Send{To: proto.Broadcast, Msg: &ins.recoverMsg}
	return ins
}

// Pooled-or-fresh backing for a round's payload: the node's beat pool
// when the driver installed one (recycled by the engine after this
// beat's Deliver phase), plain allocation otherwise (sim.PoolOff,
// direct harness use). Pooled buffers carry arbitrary
// recycled contents; every compose path below fully overwrites — or
// explicitly clears — the bytes it exposes, which is what keeps pooled
// and unpooled seeded runs byte-identical.

func (ins *Instance) allocElems(n int) []field.Elem {
	if p := ins.env.Pool; p != nil {
		return p.Elems(n)
	}
	return make([]field.Elem, n)
}

func (ins *Instance) allocBools(n int) []bool {
	if p := ins.env.Pool; p != nil {
		return p.Bools(n)
	}
	return make([]bool, n)
}

func (ins *Instance) allocPolys(n int) []field.Poly {
	if p := ins.env.Pool; p != nil {
		return p.Polys(n)
	}
	return make([]field.Poly, n)
}

func (ins *Instance) allocElemRows(n int) [][]field.Elem {
	if p := ins.env.Pool; p != nil {
		return p.ElemRows(n)
	}
	return make([][]field.Elem, n)
}

func (ins *Instance) allocBoolRows(n int) [][]bool {
	if p := ins.env.Pool; p != nil {
		return p.BoolRows(n)
	}
	return make([][]bool, n)
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
	ins.echoCached = false
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
// same (n, f) shape: gather/stage buffers, tally counters, per-sender
// pointer tables, per-destination scatter pointers, and the recover
// round's secret decoder. Each public round method checks one out of
// the process-wide pool on entry and returns it before returning, so a
// resident fleet of instances holds ZERO copies between calls — the
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
	// counts is the n² vote tally (cleared by DeliverVote).
	counts []uint64
	// seen is the per-sender dedup bitmap (cleared per deliver).
	seen []bool
	// Per-dealer row pointer tables and the grid-decode input list.
	rowPtrE   [][]field.Elem
	rowPtrB   [][]bool
	gridPtr   [][]field.Elem
	senderIdx []int
	// Per-destination flat pointers used while scattering batched
	// evaluations into outgoing messages.
	dstE [][]field.Elem
	dstB [][]bool
	// stageE/stageB hold gathered copies of delivered matrices whose
	// messages lack flat payloads (hand-built or wire-decoded forms), one
	// n² region per sender; inE/inB stage a single incoming matrix
	// before it may overwrite a sender's region. All four are lazily
	// allocated — honest in-process traffic never needs them.
	stageE []field.Elem
	stageB []bool
	inE    []field.Elem
	inB    []bool
	// dec fuses the recover round's repeated-sender-set decodes through
	// cached basis tables (lazily bound to the session's point set; the
	// tables themselves are interned process-wide).
	dec *field.SecretDecoder
}

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
	sc.dstE = make([][]field.Elem, n)
	sc.dstB = make([][]bool, n)
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
	clear(sc.dstE)
	clear(sc.dstB)
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

// gather copies an n×n row-view matrix pair into the incoming staging
// pair, returning (nil, nil) if either matrix is malformed. It serves
// messages without flat payloads (hand-built or wire-decoded); the
// result is only valid until the next gather call — callers that retain
// it move it aside with stage first.
func (sc *scratch) gather(vals [][]field.Elem, has [][]bool) ([]field.Elem, []bool) {
	n := sc.n
	if len(vals) != n || len(has) != n {
		return nil, nil
	}
	for d := 0; d < n; d++ {
		if len(vals[d]) != n || len(has[d]) != n {
			return nil, nil
		}
	}
	if sc.inE == nil {
		sc.inE = make([]field.Elem, n*n)
		sc.inB = make([]bool, n*n)
	}
	for d := 0; d < n; d++ {
		copy(sc.inE[d*n:(d+1)*n], vals[d])
		copy(sc.inB[d*n:(d+1)*n], has[d])
	}
	return sc.inE, sc.inB
}

// stage moves a gathered matrix pair from the incoming scratch into
// sender w's own staging region, whose contents stay valid for the rest
// of the round (the scratch checkout).
func (sc *scratch) stage(w int, valsFlat []field.Elem, hasFlat []bool) ([]field.Elem, []bool) {
	n := sc.n
	nn := n * n
	if sc.stageE == nil {
		sc.stageE = make([]field.Elem, n*nn)
		sc.stageB = make([]bool, n*nn)
	}
	ev := sc.stageE[w*nn : (w+1)*nn]
	bv := sc.stageB[w*nn : (w+1)*nn]
	copy(ev, valsFlat)
	copy(bv, hasFlat)
	return ev, bv
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
	sc := getScratch(n, f)
	defer putScratch(sc)
	ev := sc.ev
	flats := sc.dstE
	// One element block and one row-header block for all n messages: the
	// destinations' payloads have identical lifetimes (this beat), so they
	// share one lease from the node's beat pool. Every element is written
	// below, so recycled contents never leak.
	elems := ins.allocElems(n * n * w)
	rowHdrs := ins.allocPolys(n * n)
	sends := ins.shareSends
	for i := 0; i < n; i++ {
		flat := elems[i*n*w : (i+1)*n*w : (i+1)*n*w]
		rows := rowHdrs[i*n : (i+1)*n : (i+1)*n]
		for t := 0; t < n; t++ {
			rows[t] = field.Poly(flat[t*w : (t+1)*w : (t+1)*w])
		}
		flats[i] = flat
		ins.shareMsgs[i].Rows = rows
	}
	// Evaluate all n·w coefficient polynomials at all n points with one
	// full-width kernel call per destination: the payload block is
	// contiguous with destination-major stride n·w, and flats[i][t*w+k] =
	// c_{t,k}(x_i) is exactly EvalGridT's transposed output for the
	// polynomial family indexed r = t*w+k. This replaces n·w narrow
	// EvalInto calls plus an n²·w strided scatter.
	nR := n * w
	coefBuf := coefSharePool.get(w * nR)
	coefG := *coefBuf
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
		if b := ins.env.Batch; b != nil {
			// Deferred: the driver flushes after the compose fan-out and
			// before anything reads the payload, stacking this family with
			// same-shaped ones from other instances (see proto.Env.Batch).
			// Both coefG and the payload block stay valid until then; the
			// flush callback releases the gather back to the pool.
			ins.coefShare = coefBuf
			b.Enqueue(ins.me, elems[:n*nR], coefG, w, nR, ins, finishCoef)
		} else {
			ins.me.EvalGridT(elems[:n*nR], coefG, w, nR)
			coefSharePool.put(coefBuf)
		}
	} else {
		coefSharePool.put(coefBuf)
		// Defensive fallback (dealt rows are always w long): per-poly
		// evaluation with the strided scatter.
		for t := 0; t < n; t++ {
			c := ins.dealt.bs[t].C
			for k := 0; k < w; k++ {
				ins.me.EvalInto(ev, field.Poly(c[k]))
				for i := 0; i < n; i++ {
					flats[i][t*w+k] = ev[i]
				}
			}
		}
	}
	for i := range flats {
		flats[i] = nil // the backing now belongs to the beat's messages
	}
	// The dealt coefficients are fully consumed: the deferred batch path
	// reads coefG (the per-instance gather above), not the bivariates.
	ins.releaseDealt()
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
		m, ok := AsShare(r.Msg)
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
// from the tail of the pooled echo buffer. Callers must have verified
// every row is held; rowLen bounds every length at f+1 by construction.
func (ins *Instance) gatherCoefT() []field.Elem {
	n, w := ins.env.N, ins.env.F+1
	nn := n * n
	coefT := (*ins.echoBuf)[2*n*nn : 2*n*nn+w*nn]
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
// per destination node. Each message's n×n matrices are sliced out of
// flat backing arrays (4 allocations per destination instead of 2n+2).
// Each held row is evaluated at all n destinations in one MultiEval pass,
// directly into the instance's echoVals cache, which DeliverEcho reuses
// for agreement counting later the same beat.
func (ins *Instance) ComposeEcho() []proto.Send {
	n := ins.env.N
	sc := getScratch(n, ins.env.F)
	defer putScratch(sc)
	if ins.echoBuf == nil {
		ins.echoBuf = echoValsPool.get(2*n*n*n + (ins.env.F+1)*n*n)
		ins.echoVals = (*ins.echoBuf)[:n*n*n]
		ins.echoValsT = (*ins.echoBuf)[n*n*n : 2*n*n*n]
	}
	valsFlats := sc.dstE
	hasFlats := sc.dstB
	// Shared backing blocks for all n messages (see ComposeShare), leased
	// from the node's beat pool.
	elems := ins.allocElems(n * n * n)
	bools := ins.allocBools(n * n * n)
	valHdrs := ins.allocElemRows(n * n)
	hasHdrs := ins.allocBoolRows(n * n)
	sends := ins.echoSends
	for j := 0; j < n; j++ {
		valsFlat := elems[j*n*n : (j+1)*n*n : (j+1)*n*n]
		hasFlat := bools[j*n*n : (j+1)*n*n : (j+1)*n*n]
		vals := valHdrs[j*n : (j+1)*n : (j+1)*n]
		has := hasHdrs[j*n : (j+1)*n : (j+1)*n]
		for d := 0; d < n; d++ {
			vals[d] = valsFlat[d*n : (d+1)*n : (d+1)*n]
			has[d] = hasFlat[d*n : (d+1)*n : (d+1)*n]
		}
		valsFlats[j] = valsFlat
		hasFlats[j] = hasFlat
		ins.echoMsgs[j].Vals = vals
		ins.echoMsgs[j].Has = has
		ins.echoMsgs[j].ValsFlat = valsFlat
		ins.echoMsgs[j].HasFlat = hasFlat
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
	var coefT []field.Elem
	if held == n*n {
		coefT = ins.gatherCoefT()
	}
	if coefT != nil {
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
		if b := ins.env.Batch; b != nil {
			// Deferred: enqueue the grid evaluation and run the payload
			// copies in FinishEval once the driver's flush has filled
			// echoValsT. coefT lives in echoBuf's tail, which stays checked
			// out until this round's DeliverEcho — well past the flush.
			ins.batchElems = elems
			ins.batchBools = bools
			b.Enqueue(ins.me, ins.echoValsT, coefT, ins.env.F+1, n*n, ins, finishEcho)
		} else {
			ins.me.EvalGridT(ins.echoValsT, coefT, ins.env.F+1, n*n)
			ins.finishEchoPayload(elems, bools)
		}
	} else {
		// Pass 1: evaluate every held row at all n points, streaming into
		// the contiguous echoVals cache.
		for idx := 0; idx < n*n; idx++ {
			if row := ins.row(idx); row != nil {
				ins.me.EvalInto(ins.echoVals[idx*n:(idx+1)*n], row)
			}
		}
		// Pass 2: scatter into the per-destination payloads. Entries
		// without a row stay zero with has=false, so the leased blocks
		// must be scrubbed of their recycled contents before scattering —
		// stale bytes here would leak into the wire encoding and break
		// pooled/unpooled replay equivalence.
		clear(elems)
		clear(bools)
		for idx := 0; idx < n*n; idx++ {
			if ins.rowLen[idx] == 0 {
				continue
			}
			slot := ins.echoVals[idx*n : (idx+1)*n]
			for j := 0; j < n; j++ {
				valsFlats[j][idx] = slot[j]
				hasFlats[j][idx] = true
			}
		}
		// Retain the transposed evaluations: destination j's payload IS
		// the sender-major row the delivery sweep wants (for the loopback
		// matrix it will receive from sender j), so one copy per
		// destination saves DeliverEcho a strided n³ re-transpose.
		for j := 0; j < n; j++ {
			copy(ins.echoValsT[j*n*n:(j+1)*n*n], valsFlats[j])
		}
	}
	for j := range valsFlats {
		valsFlats[j] = nil
		hasFlats[j] = nil
	}
	ins.echoCached = true
	return sends
}

// finishEchoPayload runs the steady-state echo path's payload copies
// once echoValsT holds the grid evaluation: destination j's payload is
// echoValsT's slab j (the transposed layout IS the per-destination
// sender-major matrix), and every presence flag is true since every row
// was held. elems/bools are the beat-leased blocks backing all n
// outgoing messages.
func (ins *Instance) finishEchoPayload(elems []field.Elem, bools []bool) {
	n := ins.env.N
	copy(elems[:n*n*n], ins.echoValsT[:n*n*n])
	bools = bools[:n*n*n]
	for i := range bools {
		bools[i] = true
	}
}

// Finisher tags: which deferred enqueue a FinishEval callback finishes.
const (
	finishEcho = iota // ComposeEcho's payload copies
	finishCoef        // ComposeShare's pooled gather release
)

// FinishEval implements field.Finisher, invoked by the driver's batch
// flush after an enqueued grid evaluation has filled its destination:
// the steady-state ComposeEcho path's deferred payload copies, or the
// release of ComposeShare's pooled coefficient gather.
func (ins *Instance) FinishEval(tag int) {
	if tag == finishCoef {
		coefSharePool.put(ins.coefShare)
		ins.coefShare = nil
		return
	}
	ins.finishEchoPayload(ins.batchElems, ins.batchBools)
	ins.batchElems, ins.batchBools = nil, nil
}

// DeliverEcho ingests round-2 messages and row-fixes: for each dealing,
// the echo points sent to me lie (by bivariate symmetry) on my own row, so
// a row that disagrees with the quorum is re-decoded from the echoes,
// tolerating f Byzantine points. rowOK[d][t] records whether I now hold a
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
	// echo[w] is sender w's matrix, nil if absent/malformed.
	echo := sc.matE
	echoHas := sc.matB
	for w := 0; w < n; w++ {
		echo[w] = nil
		echoHas[w] = nil
	}
	// The tally sweep compares delivered points against my rows' values
	// at every sender's point — exactly what ComposeEcho evaluated and
	// transposed into echoValsT this beat. Without a matching compose
	// (direct harness use), fill the caches now so delivery has one
	// uniform path.
	if !ins.echoCached {
		if ins.echoBuf == nil {
			ins.echoBuf = echoValsPool.get(2*n*n*n + (f+1)*n*n)
			ins.echoVals = (*ins.echoBuf)[:n*n*n]
			ins.echoValsT = (*ins.echoBuf)[n*n*n : 2*n*n*n]
		}
		clear(ins.echoValsT)
		for idx := 0; idx < n*n; idx++ {
			if row := ins.row(idx); row != nil {
				slot := ins.echoVals[idx*n : (idx+1)*n]
				ins.me.EvalInto(slot, row)
				for j := 0; j < n; j++ {
					ins.echoValsT[j*n*n+idx] = slot[j]
				}
			}
		}
	}
	ins.echoCached = false
	defer func() {
		// The compose-time evaluations are dead after this round; hand
		// the backing buffer back for the next instance entering its
		// echo round.
		echoValsPool.put(ins.echoBuf)
		ins.echoBuf = nil
		ins.echoVals = nil
		ins.echoValsT = nil
	}()
	agree := ins.echoAgree
	clear(agree)
	for _, r := range inbox {
		m, ok := AsEcho(r.Msg)
		if !ok || r.From < 0 || r.From >= n {
			continue
		}
		valsFlat, hasFlat := m.ValsFlat, m.HasFlat
		gathered := false
		if len(valsFlat) != n*n || len(hasFlat) != n*n {
			// No (or malformed) flat payload: gather the row views into
			// the incoming staging pair, rejecting malformed shapes.
			valsFlat, hasFlat = sc.gather(m.Vals, m.Has)
			if valsFlat == nil {
				continue
			}
			gathered = true
		}
		if ins.sweepEchoFlat(r.From, valsFlat, hasFlat, false) {
			if echo[r.From] != nil {
				// Duplicate sender: only the LAST valid matrix counts, so
				// back the earlier one's contributions out (rare path).
				ins.sweepEchoFlat(r.From, echo[r.From], echoHas[r.From], true)
			}
			if gathered {
				// Move the staged copy into the sender's own region (the
				// incoming scratch is reused by the next message).
				valsFlat, hasFlat = sc.stage(r.From, valsFlat, hasFlat)
			}
			echo[r.From] = valsFlat
			echoHas[r.From] = hasFlat
		} else {
			// Validity mask tripped: this matrix contributes nothing, so
			// re-sweep to subtract the tallies just added (rare path);
			// an earlier valid matrix from this sender stays in force.
			ins.sweepEchoFlat(r.From, valsFlat, hasFlat, true)
		}
	}
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

// sweepEchoFlat is the fused validate+tally pass over one sender's
// flat echo matrix: a single traversal OR-accumulates the canonical-
// range mask (the elemsValid hi/borrow trick) while adding ±1 to the
// agreement tally of every (d,t) whose delivered point matches my row's
// value at this sender's coordinate — branch-free via an equality mask
// and the Has bit. It reports whether every element was canonical.
//
// Tallies for dealings without an installed row compare against stale
// echoValsT entries; the counts are deterministic garbage that the
// resolution loop never consults (it checks rows[d][t] != nil first),
// and a rollback re-sweep subtracts the identical values.
func (ins *Instance) sweepEchoFlat(w0 int, valsFlat []field.Elem, hasFlat []bool, negate bool) bool {
	n := ins.env.N
	// My rows' values at sender w0's point, sender-major: one sequential
	// stream, in step with the delivered flat matrix — the whole n²
	// traversal is a single wide SweepTally call.
	ev := ins.echoValsT[w0*n*n : (w0+1)*n*n]
	hi, borrow := field.SweepTally(ins.echoAgree, ev, valsFlat, hasFlat, negate)
	return hi>>31 == 0 && borrow>>63 == 0
}

// ComposeVote produces the round-3 broadcast of per-dealing validity.
func (ins *Instance) ComposeVote() []proto.Send {
	n := ins.env.N
	flat := ins.allocBools(n * n)
	ok := ins.allocBoolRows(n)
	copy(flat, ins.rowOKFlat)
	for d := 0; d < n; d++ {
		ok[d] = flat[d*n : (d+1)*n : (d+1)*n]
	}
	ins.voteMsg.OK = ok
	ins.voteMsg.OKFlat = flat
	return ins.voteSends
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
		m, ok := AsVote(r.Msg)
		if !ok || r.From < 0 || r.From >= n || seen[r.From] {
			continue
		}
		if len(m.OKFlat) == n*n {
			// Flat payload: the whole n² grid tallies in ONE wide sweep.
			seen[r.From] = true
			field.AccumBool(counts, m.OKFlat)
			continue
		}
		if !boolMatrixValid(m.OK, n) {
			continue
		}
		seen[r.From] = true
		for d := 0; d < n; d++ {
			field.AccumBool(counts[d*n:(d+1)*n], m.OK[d][:n])
		}
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
	var sharesFlat []field.Elem
	var hasFlat []bool
	if p := ins.env.Pool; p != nil {
		sharesFlat = p.ElemsZero(n * n)
		hasFlat = p.BoolsZero(n * n)
	} else {
		sharesFlat = make([]field.Elem, n*n)
		hasFlat = make([]bool, n*n)
	}
	shares := ins.allocElemRows(n)
	has := ins.allocBoolRows(n)
	for d := 0; d < n; d++ {
		shares[d] = sharesFlat[d*n : (d+1)*n : (d+1)*n]
		has[d] = hasFlat[d*n : (d+1)*n : (d+1)*n]
	}
	for dt := 0; dt < n*n; dt++ {
		if ins.rowOKFlat[dt] {
			// g(0) is the constant coefficient; rows are canonical
			// (validated on delivery or decoded), so no Horner pass is
			// needed. Fixed rows may be trimmed to the zero polynomial.
			if ins.rowLen[dt] > 1 {
				sharesFlat[dt] = ins.rowData[dt*(f+1)]
			}
			hasFlat[dt] = true
		}
	}
	ins.recoverMsg.Shares = shares
	ins.recoverMsg.HasRow = has
	ins.recoverMsg.SharesFlat = sharesFlat
	ins.recoverMsg.HasRowFlat = hasFlat
	return ins.recoverSends
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
	for w := 0; w < n; w++ {
		shares[w] = nil
		has[w] = nil
	}
	for _, r := range inbox {
		m, ok := AsRecover(r.Msg)
		if !ok || r.From < 0 || r.From >= n {
			continue
		}
		sharesFlat, hasFlat := m.SharesFlat, m.HasRowFlat
		gathered := false
		if len(sharesFlat) != n*n || len(hasFlat) != n*n {
			sharesFlat, hasFlat = sc.gather(m.Shares, m.HasRow)
			if sharesFlat == nil {
				continue
			}
			gathered = true
		}
		// One wide range check validates the whole matrix.
		if !elemsValid(sharesFlat) {
			continue
		}
		if gathered {
			sharesFlat, hasFlat = sc.stage(r.From, sharesFlat, hasFlat)
		}
		shares[r.From] = sharesFlat
		has[r.From] = hasFlat
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

func boolMatrixValid(m [][]bool, n int) bool {
	if len(m) != n {
		return false
	}
	for _, row := range m {
		if len(row) != n {
			return false
		}
	}
	return true
}

// elemPool recycles []field.Elem buffers. It pools *[]field.Elem, not
// the slice itself: putting a slice into a sync.Pool boxes its header,
// one allocation per Put (staticcheck SA6002).
type elemPool struct{ p sync.Pool }

func (p *elemPool) get(size int) *[]field.Elem {
	if v, ok := p.p.Get().(*[]field.Elem); ok && cap(*v) >= size {
		*v = (*v)[:size]
		return v
	}
	v := make([]field.Elem, size)
	return &v
}

func (p *elemPool) put(v *[]field.Elem) {
	if v != nil {
		p.p.Put(v)
	}
}

// echoValsPool recycles the n³ echo-evaluation buffers across instances
// and sessions; a buffer is only live from an instance's ComposeEcho to
// the end of its DeliverEcho the same beat, so the pool's working set is
// a handful of buffers per node rather than one per pipeline slot.
var echoValsPool elemPool

// coefSharePool recycles ComposeShare's small coefficient-gather blocks
// (w²·n elements); kept separate from echoValsPool so the little
// gathers never swallow — or get lost among — the n³ echo buffers.
var coefSharePool elemPool
