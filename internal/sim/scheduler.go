package sim

import (
	"runtime"
	"sync"
)

// Scheduler fans per-node-independent phase work over a fixed worker
// count. The paper's beat system makes Compose and Deliver independent
// across nodes within a phase (Section 2: all round-r messages are
// exchanged between the two phases), so the engine hands each phase to
// ForEach and synchronizes on its return.
//
// Determinism: work assignment is a pure function of (n, workers) —
// contiguous index blocks — and every per-index closure writes only to
// its own index's output slot, so a run is byte-identical for every
// worker count, including 1. Workers own a private WorkerScratch, giving
// phase closures allocation-free access to per-goroutine buffers.
type Scheduler struct {
	workers int
	scratch []*WorkerScratch
}

// WorkerScratch is the per-worker scratch arena handed to every phase
// closure. Buffers grow on demand and are reused across beats; they must
// not be retained beyond the closure invocation.
type WorkerScratch struct {
	// Buf is a reusable byte buffer (wire encoding during CountBytes
	// accounting).
	Buf []byte
}

// NewScheduler builds a scheduler with the given worker count; 0 (or any
// non-positive value) selects runtime.GOMAXPROCS(0).
func NewScheduler(workers int) *Scheduler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Scheduler{workers: workers, scratch: make([]*WorkerScratch, workers)}
	for i := range s.scratch {
		s.scratch[i] = &WorkerScratch{}
	}
	return s
}

// Workers returns the configured worker count.
func (s *Scheduler) Workers() int { return s.workers }

// WorkerFor returns the worker index ForEach(n, ·) assigns item i to —
// the same contiguous-block arithmetic ForEach runs. Drivers that give
// each worker exclusive resources (the multi-tenant engine's group
// pools) use it to bind item i's resources to
// the goroutine that will actually process i, for every phase that
// ForEach fans out over the same n.
func (s *Scheduler) WorkerFor(n, i int) int {
	w := s.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		return 0
	}
	chunk := (n + w - 1) / w
	return i / chunk
}

// ForEach invokes fn(ws, i) for every i in [0, n) and returns when all
// invocations have finished. With one worker (or n <= 1) it runs inline
// on the calling goroutine — zero overhead and trivially sequential.
// Otherwise indices are split into contiguous blocks, one per worker;
// the caller's goroutine processes block 0 while the remaining blocks
// run on fresh goroutines. fn must confine its writes to per-index data
// (plus its own WorkerScratch) and must not panic across goroutines.
func (s *Scheduler) ForEach(n int, fn func(ws *WorkerScratch, i int)) {
	w := s.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		ws := s.scratch[0]
		for i := 0; i < n; i++ {
			fn(ws, i)
		}
		return
	}
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	for k := 1; k < w; k++ {
		lo := k * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(ws *WorkerScratch, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(ws, i)
			}
		}(s.scratch[k], lo, hi)
	}
	ws := s.scratch[0]
	for i := 0; i < chunk; i++ {
		fn(ws, i)
	}
	wg.Wait()
}
