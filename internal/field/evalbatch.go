package field

// Finisher is the completion hook a deferred evaluation job may carry:
// FinishEval(tag) runs after the job's destination has been filled, in
// enqueue order, so the owner can run the copies that in the immediate
// path would have followed the EvalGridT call (scattering transposed
// results into per-destination payloads, setting presence bitmaps).
type Finisher interface {
	FinishEval(tag int)
}

// evalJob is one deferred EvalGridT call: evaluate the polynomial
// family coefT (degree-major, w × nR) at every one of me's points into
// dst (point-major, me.N() × nR).
type evalJob struct {
	me    *MultiEval
	dst   []Elem
	coefT []Elem
	w, nR int
	fin   Finisher
	tag   int
}

// EvalBatch defers EvalGridT calls so that same-shaped jobs from many
// independent protocol instances can be stacked side by side into one
// deep kernel pass. A multi-tenant beat produces thousands of narrow
// grid evaluations (nR = n² per GVSS echo at small n); stacked, the
// evalColumns kernels see thousands-wide columns instead, which is the
// regime the 8-point block kernels (quad8, AVX2) are built for.
//
// Correctness does not depend on grouping: every evalColumns kernel
// computes the exact canonical sum for each column independently of
// its neighbors (see MultiEval.EvalGridT), so a stacked evaluation is
// bit-identical to running the jobs one by one — batching is purely a
// scheduling decision.
//
// Usage contract: the owner (one scheduler worker) enqueues during the
// compose fan-out and calls Flush after the compose barrier, before
// anything reads the destination payloads. Job inputs (coefT) and
// outputs (dst) must stay valid and untouched until Flush returns. Not
// safe for concurrent use; drivers give each worker its own batch.
type EvalBatch struct {
	jobs []evalJob
	coef []Elem
	out  []Elem
}

// batchMaxCols caps the stacked width of one fused kernel pass. It
// bounds the gather/scatter scratch (w·cols + n·cols elements) while
// staying far past the width where kernel throughput saturates.
const batchMaxCols = 1 << 12

// Enqueue defers me.EvalGridT(dst, coefT, w, nR); fin (when non-nil)
// runs with the given tag once dst has been filled.
func (b *EvalBatch) Enqueue(me *MultiEval, dst, coefT []Elem, w, nR int, fin Finisher, tag int) {
	b.jobs = append(b.jobs, evalJob{me: me, dst: dst, coefT: coefT, w: w, nR: nR, fin: fin, tag: tag})
}

// Len reports the number of pending jobs.
func (b *EvalBatch) Len() int { return len(b.jobs) }

// Flush runs every pending job, stacking maximal runs of jobs that
// share an evaluation table and coefficient count into single deep
// EvalGridT passes, then invokes finishers in enqueue order.
func (b *EvalBatch) Flush() {
	jobs := b.jobs
	for lo := 0; lo < len(jobs); {
		j := jobs[lo]
		hi := lo + 1
		cols := j.nR
		for hi < len(jobs) && jobs[hi].me == j.me && jobs[hi].w == j.w &&
			cols+jobs[hi].nR <= batchMaxCols {
			cols += jobs[hi].nR
			hi++
		}
		if hi == lo+1 {
			j.me.EvalGridT(j.dst, j.coefT, j.w, j.nR)
			if j.fin != nil {
				j.fin.FinishEval(j.tag)
			}
			lo = hi
			continue
		}
		b.runStacked(jobs[lo:hi], cols)
		lo = hi
	}
	b.jobs = b.jobs[:0]
}

// runStacked evaluates a group of same-shaped jobs as one wide grid:
// gather the groups' coefficient families side by side, run one
// EvalGridT over the combined width, scatter each job's columns back
// into its destination, then run the finishers.
func (b *EvalBatch) runStacked(group []evalJob, cols int) {
	me, w := group[0].me, group[0].w
	n := me.N()
	if cap(b.coef) < w*cols {
		b.coef = make([]Elem, w*cols)
	}
	if cap(b.out) < n*cols {
		b.out = make([]Elem, n*cols)
	}
	coef := b.coef[:w*cols]
	out := b.out[:n*cols]
	for k := 0; k < w; k++ {
		off := 0
		for _, j := range group {
			copy(coef[k*cols+off:k*cols+off+j.nR], j.coefT[k*j.nR:(k+1)*j.nR])
			off += j.nR
		}
	}
	me.EvalGridT(out, coef, w, cols)
	off := 0
	for _, j := range group {
		for i := 0; i < n; i++ {
			copy(j.dst[i*j.nR:(i+1)*j.nR], out[i*cols+off:i*cols+off+j.nR])
		}
		off += j.nR
	}
	for _, j := range group {
		if j.fin != nil {
			j.fin.FinishEval(j.tag)
		}
	}
}
