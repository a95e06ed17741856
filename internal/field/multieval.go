package field

import "sync"

// This file implements batched polynomial evaluation at a fixed point
// set: one power table shared by every evaluation, with the accumulation
// loop ordered so the per-point accumulators are independent (the CPU can
// overlap the multiplies, unlike Horner's serial dependency chain). The
// GVSS echo round evaluates each of its n² row polynomials at all n share
// points every beat — n³ evaluations that previously went through n
// independent Poly.Eval calls and dominated the post-PR-1 profile.
// The inner kernel itself (evalColumns) lives in kernels.go: AVX2 where
// the CPU has it, the portable quad8 Go kernel otherwise.

// multiEvalCache caches the tables for the point sets 1..n the coin
// pipeline uses, keyed by (n, deg). Tables are immutable once published.
var multiEvalCache struct {
	sync.RWMutex
	m map[[2]int]*MultiEval
}

// MultiEval evaluates polynomials of degree <= deg at a fixed ordered
// point set in one pass per polynomial. It is immutable after
// construction and safe for concurrent use by any number of goroutines;
// callers supply the destination (and any scratch) buffers.
type MultiEval struct {
	n, deg int
	// pows[i*(deg+1)+k] = xs[i]^k: one contiguous power row per point, so
	// a single-point evaluation is a register-accumulated dot product
	// whose multiplies are independent of the (serial) fold chain —
	// unlike Horner, where every multiply sits on the accumulator's
	// critical path.
	pows []Elem
	// powsT[k*n+i] = xs[i]^k, the transposed layout the evalColumns
	// kernels stream (kernels.go): a block of points' powers of x^k are
	// adjacent, and the per-point accumulator chains are independent, so
	// the CPU (or a ymm register) overlaps their latencies.
	powsT []Elem
}

// NewMultiEval builds the table for the given points and maximum degree.
// deg must be >= 0.
func NewMultiEval(xs []Elem, deg int) *MultiEval {
	n := len(xs)
	m := &MultiEval{n: n, deg: deg}
	m.pows = make([]Elem, n*(deg+1))
	m.powsT = make([]Elem, (deg+1)*n)
	for i, x := range xs {
		p := Elem(1)
		for k := 0; k <= deg; k++ {
			m.pows[i*(deg+1)+k] = p
			m.powsT[k*n+i] = p
			p = Mul(p, x)
		}
	}
	return m
}

// MultiEvalFor returns the (cached, shared) table for the share points
// 1..n and degree bound deg — the shape every GVSS session uses.
func MultiEvalFor(n, deg int) *MultiEval {
	key := [2]int{n, deg}
	multiEvalCache.RLock()
	m := multiEvalCache.m[key]
	multiEvalCache.RUnlock()
	if m != nil {
		return m
	}
	xs := make([]Elem, n)
	for i := range xs {
		xs[i] = Elem(i + 1)
	}
	m = NewMultiEval(xs, deg)
	multiEvalCache.Lock()
	if existing := multiEvalCache.m[key]; existing != nil {
		m = existing
	} else {
		if multiEvalCache.m == nil {
			multiEvalCache.m = make(map[[2]int]*MultiEval)
		}
		multiEvalCache.m[key] = m
	}
	multiEvalCache.Unlock()
	return m
}

// N returns the number of evaluation points.
func (m *MultiEval) N() int { return m.n }

// EvalInto writes p(xs[i]) into dst[i] for every point; dst must have
// length >= N() and p degree <= the table's bound. Concurrent callers
// with distinct dst never interfere. Dispatches to the active
// evalColumns kernel (see kernels.go).
func (m *MultiEval) EvalInto(dst []Elem, p Poly) {
	if len(p) > m.deg+1 {
		panic("field: MultiEval degree exceeded")
	}
	evalColumns(dst[:m.n], p, m.powsT, m.n)
}

// EvalGridT evaluates a family of polynomials at every table point,
// writing the results in transposed (point-major) order. coefT holds
// the family's coefficients degree-major, coefT[k*nR+r] = poly_r[k] for
// r in [0,nR), k in [0,w); dst[i*nR+r] receives poly_r(xs[i]). One
// full-width kernel pass per point replaces nR per-polynomial EvalInto
// calls — and because every kernel computes the exact canonical sum,
// the values are bit-identical to per-row evaluation.
func (m *MultiEval) EvalGridT(dst, coefT []Elem, w, nR int) {
	if w > m.deg+1 {
		panic("field: MultiEval degree exceeded")
	}
	stride := m.deg + 1
	for i := 0; i < m.n; i++ {
		evalColumns(dst[i*nR:(i+1)*nR], m.pows[i*stride:i*stride+w], coefT, nR)
	}
}

// At evaluates p at point index i (0-based) through the row power table:
// a single lazy-reduced dot product. Like EvalInto, it panics when p is
// longer than the table's degree bound — the dot product would otherwise
// silently read into the next point's power row.
func (m *MultiEval) At(p Poly, i int) Elem {
	if len(p) > m.deg+1 {
		panic("field: MultiEval degree exceeded")
	}
	row := m.pows[i*(m.deg+1) : i*(m.deg+1)+len(p)]
	return Dot(p, row)
}

// secretDecoderMaxTables bounds each decoder's table cache. Present-
// point sets are bitmasks over at most 64 share coordinates, and honest
// traffic only ever produces a handful of them (the full set and the
// n-f..n sized subsets the live senders form), so the bound is only ever
// reached under active Byzantine set-churn — at which point further new
// sets fall back to DecodeFastInto (which shares the process-wide Recon
// cache) instead of growing the map.
const secretDecoderMaxTables = 512

// sdGlobalKey identifies a decoder table process-wide: the point-set
// table it verifies against plus the (mask, k) pair. MultiEval tables
// are themselves interned per (n, deg) by MultiEvalFor, so the pointer
// is a stable identity for the point set.
type sdGlobalKey struct {
	me *MultiEval
	sdKey
}

// sdTableCache interns decoder tables process-wide, keyed by
// (point-set table, mask, k). Tables are immutable once published, so
// every SecretDecoder — one per worker or per node, across thousands
// of multiplexed tenants — shares one copy of each basis table instead
// of rebuilding it per decoder. Bounded like the per-decoder map; on
// overflow new sets simply stay decoder-local.
var sdTableCache struct {
	sync.RWMutex
	m map[sdGlobalKey]*sdTable
}

const sdTableCacheMax = 4096

// sdTableShared looks up an interned table, returning nil on miss.
func sdTableShared(key sdGlobalKey) *sdTable {
	sdTableCache.RLock()
	t := sdTableCache.m[key]
	sdTableCache.RUnlock()
	return t
}

// sdTablePublish interns a freshly built table, returning the winning
// copy (an earlier publisher's table on a race, so every decoder ends
// up sharing one instance).
func sdTablePublish(key sdGlobalKey, t *sdTable) *sdTable {
	sdTableCache.Lock()
	defer sdTableCache.Unlock()
	if existing := sdTableCache.m[key]; existing != nil {
		return existing
	}
	if sdTableCache.m == nil {
		sdTableCache.m = make(map[sdGlobalKey]*sdTable)
	}
	if len(sdTableCache.m) < sdTableCacheMax {
		sdTableCache.m[key] = t
	}
	return t
}

// sdKey identifies a decoder table: the bitmask of the full present
// set AND the interpolation prefix length k (the same point set decoded
// at a different degree needs different verification rows).
type sdKey struct {
	mask uint64
	k    uint8
}

// sdTable is the per-(point set, degree) half of a SecretDecoder: the
// Lagrange data (r) for the interpolation prefix and the suffix
// verification table, immutable once built.
type sdTable struct {
	r *Recon
	// vfyT[c*(m-k)+i] = L_c^S(xs[k+i]): the prefix Lagrange basis
	// evaluated at the m-k SUFFIX points only, column-major so one
	// evalColumns pass yields the candidate interpolant's value at every
	// suffix point. The prefix points need no verification at all — the
	// interpolant passes through them exactly by construction, so
	// DecodeFast's disagreement count over all m points equals the count
	// over the suffix. This cuts the verification kernel from m columns
	// to m-k (~40% of the recover round's kernel work at n=16).
	vfyT []Elem
	// vfyR is the same data suffix-point-major — vfyR[i*k+c] =
	// L_c^S(xs[k+i]) — the coefficient layout DecodeAt0Block feeds the
	// kernel when it verifies a whole dealer block against suffix point
	// xs[k+i] in one full-width pass.
	vfyR []Elem
}

// SecretDecoder decodes a batch of Reed–Solomon share vectors whose
// present-point sets repeat (the GVSS recover round: per-dealing sender
// sets, n² dealings), returning only the interpolant's value at 0. It
// fuses DecodeFast's happy path through two cached tables per
// (point set, degree):
//
//   - the suffix verification table vfyT (see sdTable), so verifying a
//     candidate costs one kernel pass over the m-k suffix points;
//   - the Recon's w0 weights, so the accepted secret is Dot(w0, ys[:k]).
//
// Tables are keyed by the full present-set bitmask plus prefix length
// (like ReconFor), so a Byzantine RecoverMsg alternating per-dealing
// present sets hits the cache instead of forcing an O(n·k²) table
// rebuild per dealing; a one-entry hot cache in front of the map serves
// the steady state (every dealing of a beat shares one sender set)
// without a map lookup. Sets outside the mask domain, or beyond the
// cache bound, fall back to DecodeFastInto with identical accept/reject
// behaviour.
//
// The exact Lagrange identities make the tables bit-equivalent to
// interpolating and evaluating (validated by the differential test
// against DecodeFast). The fallback under too many errors is the full
// Berlekamp–Welch Decode, unchanged. The zero value is not usable; bind
// with NewSecretDecoder. Not safe for concurrent use — hold one per node.
type SecretDecoder struct {
	me      *MultiEval
	tables  map[sdKey]*sdTable
	ev      []Elem
	scratch Poly
	// Block-decode scratch (DecodeAt0Block): the gathered prefix rows,
	// per-column disagreement tallies, and a ys gather buffer.
	tabScratch []Elem
	badScratch []uint64
	ysScratch  []Elem
	// hot one-entry cache: the last (mask, k) resolved and its table.
	lastKey sdKey
	lastT   *sdTable
	// rebuilds counts table constructions (test instrumentation for the
	// alternating-set regression).
	rebuilds int
}

// NewSecretDecoder returns a decoder verifying against m's point set.
func NewSecretDecoder(m *MultiEval) *SecretDecoder {
	return &SecretDecoder{me: m, ev: make([]Elem, m.n), tables: make(map[sdKey]*sdTable)}
}

// ME returns the point-set table this decoder verifies against, so a
// shared-scratch owner can tell whether a pooled decoder is bound to
// the right (n, deg) table or needs rebinding.
func (sd *SecretDecoder) ME() *MultiEval { return sd.me }

// tableFor returns the cached table for the full point set xs with
// interpolation prefix length k, building it on first sight. It returns
// nil when the set is outside the bitmask domain (not strictly ascending
// in [1, min(N(), 64)]) or the cache is full — callers then take the
// DecodeFastInto path.
func (sd *SecretDecoder) tableFor(xs []Elem, k int) *sdTable {
	mask := uint64(0)
	prev := Elem(0)
	for _, x := range xs {
		if x <= prev || x > Elem(sd.me.n) || x > 64 {
			return nil
		}
		mask |= 1 << (x - 1)
		prev = x
	}
	key := sdKey{mask: mask, k: uint8(k)}
	if key == sd.lastKey && sd.lastT != nil {
		return sd.lastT
	}
	t := sd.tables[key]
	if t == nil {
		if len(sd.tables) >= secretDecoderMaxTables {
			return nil
		}
		// A local miss counts as a rebuild whether or not the process-wide
		// cache already holds the table: rebuilds instruments this
		// decoder's set-churn, not global construction cost.
		sd.rebuilds++
		gkey := sdGlobalKey{me: sd.me, sdKey: key}
		if t = sdTableShared(gkey); t == nil {
			m := len(xs)
			t = &sdTable{r: ReconFor(xs[:k]), vfyT: make([]Elem, k*(m-k)), vfyR: make([]Elem, (m-k)*k)}
			for c := 0; c < k; c++ {
				// Row c of vfyT is the basis polynomial L_c evaluated at the
				// suffix points; vfyR mirrors it point-major.
				basis := Poly(t.r.basis[c*k : (c+1)*k])
				for i := k; i < m; i++ {
					v := sd.me.At(basis, int(xs[i])-1)
					t.vfyT[c*(m-k)+(i-k)] = v
					t.vfyR[(i-k)*k+c] = v
				}
			}
			t = sdTablePublish(gkey, t)
		}
		sd.tables[key] = t
	}
	sd.lastKey, sd.lastT = key, t
	return t
}

// DecodeAt0 returns the value at x = 0 of the degree-<=degree polynomial
// through (xs, ys), tolerating up to maxErrors wrong points; it errors
// exactly when DecodeFast(xs, ys, degree, maxErrors) errors. Every x in
// xs must be a coordinate of the bound table (a value in [1, N()]).
func (sd *SecretDecoder) DecodeAt0(xs, ys []Elem, degree, maxErrors int) (Elem, error) {
	// Cap at the information-theoretic bound, exactly as DecodeFastInto.
	if cap := (len(xs) - degree - 1) / 2; maxErrors > cap {
		maxErrors = cap
	}
	if degree >= 0 && maxErrors >= 0 && len(xs) == len(ys) && len(xs) > degree {
		k := degree + 1
		t := sd.tableFor(xs, k)
		if t == nil {
			// Uncacheable or cache-full set: the unfused fast path, same
			// accept/reject decisions, no table build.
			p, err := DecodeFastInto(sd.scratch, xs, ys, degree, maxErrors)
			if err != nil {
				return 0, err
			}
			if cap(p) > cap(sd.scratch) {
				sd.scratch = p[:0]
			}
			return p.Eval(0), nil
		}
		// One kernel pass gives the candidate interpolant's value at every
		// SUFFIX point: p(xs[k+i]) = sum_c ys[c] * L_c(xs[k+i]). The
		// prefix points agree by construction, so the branch-free
		// disagreement count below equals DecodeFast's count over all m.
		sfx := len(xs) - k
		evalColumns(sd.ev[:sfx], ys[:k], t.vfyT, sfx)
		bad := 0
		for i := 0; i < sfx; i++ {
			x := uint64(sd.ev[i] ^ ys[k+i])
			bad += int((x | -x) >> 63) // 1 iff the point disagrees
		}
		if bad <= maxErrors {
			return t.r.SecretAt0(ys[:k]), nil
		}
	}
	p, err := Decode(xs, ys, degree, maxErrors)
	if err != nil {
		return 0, err
	}
	return p.Eval(0), nil
}

// DecodeAt0Block decodes a whole dealer block at once: rows[i] holds
// sender xs[i]'s share for each of the nT targets (len(rows[i]) >= nT),
// so column t of the block is exactly the ys vector a per-dealing call
// would pass. For every t in [0, nT) it behaves like
//
//	if v, err := sd.DecodeAt0(xs, column t, degree, maxErrors); err == nil {
//		out[t], okOut[t] = v, true
//	}
//
// leaving out[t]/okOut[t] untouched on error — but the happy path is
// batched: the interpolation prefix is gathered into one contiguous
// k×nT block and each SUFFIX point verifies all nT candidates with a
// single full-width kernel pass (m-k passes total instead of nT
// per-column calls), with a branch-free per-column disagreement tally.
// Columns whose tally exceeds maxErrors fall back to the full
// Berlekamp–Welch Decode individually, exactly as DecodeAt0 would.
func (sd *SecretDecoder) DecodeAt0Block(xs []Elem, rows [][]Elem, nT, degree, maxErrors int, out []Elem, okOut []bool) {
	if cap := (len(xs) - degree - 1) / 2; maxErrors > cap {
		maxErrors = cap
	}
	m := len(xs)
	if len(sd.ysScratch) < m || len(sd.ysScratch) < len(rows) {
		sd.ysScratch = make([]Elem, max(m, len(rows)))
	}
	ys := sd.ysScratch[:len(rows)]
	var t *sdTable
	if degree >= 0 && maxErrors >= 0 && m == len(rows) && m > degree {
		t = sd.tableFor(xs, degree+1)
	}
	if t == nil {
		// Uncacheable set (or malformed shape): per-column decoding,
		// identical to the callers' previous loop.
		for tt := 0; tt < nT; tt++ {
			for i := range rows {
				ys[i] = rows[i][tt]
			}
			if v, err := sd.DecodeAt0(xs, ys, degree, maxErrors); err == nil {
				out[tt], okOut[tt] = v, true
			}
		}
		return
	}
	k := degree + 1
	sfx := m - k
	if len(sd.tabScratch) < k*nT {
		sd.tabScratch = make([]Elem, k*nT)
	}
	if len(sd.badScratch) < nT {
		sd.badScratch = make([]uint64, nT)
	}
	if len(sd.ev) < nT {
		sd.ev = make([]Elem, nT)
	}
	tab := sd.tabScratch[:k*nT]
	for c := 0; c < k; c++ {
		copy(tab[c*nT:(c+1)*nT], rows[c][:nT])
	}
	bad := sd.badScratch[:nT]
	clear(bad)
	resid := sd.ev[:nT]
	for i := 0; i < sfx; i++ {
		// Candidate interpolants' values at suffix point xs[k+i] for all
		// nT columns in one kernel pass, compared against the suffix
		// sender's delivered row by the branch-free disagreement sweep.
		evalColumns(resid, t.vfyR[i*k:(i+1)*k], tab, nT)
		AccumNeq(bad, resid, rows[k+i][:nT])
	}
	// One more full-width pass computes every column's would-be secret
	// Dot(w0, column) at once — the same exact canonical sum SecretAt0
	// produces — into resid, which is dead after the tally above. The
	// accept loop below then just picks the columns whose tally passed.
	evalColumns(resid, t.r.w0, tab, nT)
	for tt := 0; tt < nT; tt++ {
		if int(bad[tt]) <= maxErrors {
			out[tt], okOut[tt] = resid[tt], true
			continue
		}
		// Too many errors for the fast accept: the full decoder, exactly
		// as DecodeAt0's tail.
		for i := range rows {
			ys[i] = rows[i][tt]
		}
		if p, err := Decode(xs, ys, degree, maxErrors); err == nil {
			out[tt], okOut[tt] = p.Eval(0), true
		}
	}
}

// DecodeAt0Grid decodes a whole nD×nT grid of dealings at once:
// grids[i] is sender xs[i]'s full share matrix in flat row-major form
// (grids[i][d*nT+t] is its share for dealing (d,t), len >= nD*nT), so
// for every (d,t) it behaves exactly like DecodeAt0Block column t of
// dealer d's block — equivalently, like a per-dealing DecodeAt0 —
// writing out[d*nT+t]/okOut[d*nT+t] (flat row-major, matching the
// input layout) and leaving them untouched on error.
// The point of the grid shape is kernel width: each suffix sender
// verifies all nD·nT candidate columns with ONE full-width evalColumns
// pass and ONE full-width disagreement sweep (m-k of each for the
// entire grid, instead of nD blocks of narrow passes), which amortizes
// per-call dispatch overhead and runs the wide kernels in their
// long-vector regime; the flat sender matrices load into the kernel
// table with a single copy each.
func (sd *SecretDecoder) DecodeAt0Grid(xs []Elem, grids [][]Elem, nD, nT, degree, maxErrors int, out []Elem, okOut []bool) {
	if cap := (len(xs) - degree - 1) / 2; maxErrors > cap {
		maxErrors = cap
	}
	m := len(xs)
	if len(sd.ysScratch) < m || len(sd.ysScratch) < len(grids) {
		sd.ysScratch = make([]Elem, max(m, len(grids)))
	}
	ys := sd.ysScratch[:len(grids)]
	var t *sdTable
	if degree >= 0 && maxErrors >= 0 && m == len(grids) && m > degree {
		t = sd.tableFor(xs, degree+1)
	}
	if t == nil {
		// Uncacheable set (or malformed shape): per-dealing decoding,
		// identical to a per-column DecodeAt0 loop.
		for col := 0; col < nD*nT; col++ {
			for i := range grids {
				ys[i] = grids[i][col]
			}
			if v, err := sd.DecodeAt0(xs, ys, degree, maxErrors); err == nil {
				out[col], okOut[col] = v, true
			}
		}
		return
	}
	k := degree + 1
	sfx := m - k
	wide := nD * nT
	if len(sd.tabScratch) < k*wide {
		sd.tabScratch = make([]Elem, k*wide)
	}
	if len(sd.badScratch) < wide {
		sd.badScratch = make([]uint64, wide)
	}
	if len(sd.ev) < wide {
		sd.ev = make([]Elem, wide)
	}
	tab := sd.tabScratch[:k*wide]
	for c := 0; c < k; c++ {
		copy(tab[c*wide:(c+1)*wide], grids[c][:wide])
	}
	bad := sd.badScratch[:wide]
	clear(bad)
	resid := sd.ev[:wide]
	for i := 0; i < sfx; i++ {
		evalColumns(resid, t.vfyR[i*k:(i+1)*k], tab, wide)
		AccumNeq(bad, resid, grids[k+i][:wide])
	}
	// As in DecodeAt0Block: one full-width pass computes every column's
	// would-be secret Dot(w0, column) into the now-dead resid buffer.
	evalColumns(resid, t.r.w0, tab, wide)
	for col := 0; col < wide; col++ {
		if int(bad[col]) <= maxErrors {
			out[col], okOut[col] = resid[col], true
			continue
		}
		for i := range grids {
			ys[i] = grids[i][col]
		}
		if p, err := Decode(xs, ys, degree, maxErrors); err == nil {
			out[col], okOut[col] = p.Eval(0), true
		}
	}
}
