package sim

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Scheduler fans per-node-independent phase work over a fixed worker
// count. The paper's beat system makes Compose and Deliver independent
// across nodes within a phase (Section 2: all round-r messages are
// exchanged between the two phases), so the engine hands each phase to
// ForEach and synchronizes on its return.
//
// Determinism: a fan-out is split into contiguous index blocks, a pure
// function of (n, workers), and block k always runs with WorkerScratch
// k, whichever goroutine claims it. Every per-index call writes only to
// its own index's output slot, so a run is byte-identical for every
// worker count, including 1.
//
// Execution: no Scheduler owns a goroutine. One process-wide crew of
// GOMAXPROCS-1 workers, started on the first fan-out that has more than
// one block, serves every Scheduler. ForEach posts the fan-out once; the
// caller and the crew claim its blocks one at a time until none is
// left, and the caller returns when the last claimed block is done. A
// worker out of work spins, yielding, for spinBudget before it parks,
// so the next phase of a beat finds it awake: waking a parked goroutine
// on the other core, not starting one, is what a fan-out used to cost.
// A fan-out allocates nothing; callers that bind fn once (sim.Engine
// does, in New) make a parallel beat allocation-free. Engines are
// created and dropped with nothing to start or stop.
//
// A Scheduler runs one fan-out at a time: ForEach must not be called
// concurrently, or from inside fn, on the same Scheduler (its blocks
// share the WorkerScratch). Distinct Schedulers may fan out concurrently
// and may nest.
type Scheduler struct {
	workers int
	scratch []*WorkerScratch
	job     job
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
	s.job.done = make(chan struct{}, 1)
	return s
}

// Workers returns the configured worker count.
func (s *Scheduler) Workers() int { return s.workers }

// WorkerFor returns the block, hence the WorkerScratch, ForEach(n, ·)
// assigns item i to — the same contiguous-block arithmetic ForEach
// runs. Drivers that give each block exclusive resources (the
// multi-tenant engine's group pools) use it to bind item i's resources
// to the block that will process i, for every phase that ForEach fans
// out over the same n: one goroutine at a time runs a block.
func (s *Scheduler) WorkerFor(n, i int) int {
	w := min(s.workers, n)
	if w <= 1 {
		return 0
	}
	chunk := (n + w - 1) / w
	return i / chunk
}

// ForEach invokes fn(ws, i) for every i in [0, n) and returns when all
// invocations have finished. With one worker (or n <= 1) it runs inline
// on the calling goroutine. Otherwise indices are split into contiguous
// blocks, block k running with WorkerScratch k; the caller and the
// process-wide crew claim blocks until none is left. fn must confine its
// writes to per-index data (plus its WorkerScratch) and must not panic.
func (s *Scheduler) ForEach(n int, fn func(ws *WorkerScratch, i int)) {
	w := min(s.workers, n)
	if w <= 1 {
		ws := s.scratch[0]
		for i := 0; i < n; i++ {
			fn(ws, i)
		}
		return
	}
	chunk := (n + w - 1) / w
	f := fanout{fn: fn, scratch: s.scratch, n: n, chunk: chunk, blocks: (n + chunk - 1) / chunk}
	j := &s.job
	crew.post(j, &f)
	f.work(j)
	// Wait for blocks the crew claimed: spin while they finish, as a
	// worker waits for work, then park until the last one reports.
	for start := time.Now(); ; runtime.Gosched() {
		select {
		case <-j.done:
			return
		default:
		}
		if time.Since(start) > spinBudget {
			<-j.done
			return
		}
	}
}

// spinBudget is how long an idle goroutine — a crew worker out of work,
// or a caller waiting for the crew's last block — spins, yielding the
// processor on every turn, before it parks. It covers the serial gap
// between an engine's fan-outs (the exchange phase, about 0.1 ms at
// n=16, plus the driver's own per-beat work) several times over, so a
// beat's deliver fan-out, and the next beat's compose, find the crew
// awake; a process that stops fanning out parks the crew within it. On
// a 2-vCPU box engine-n16 read 1,170–1,370 beats/s at 250 µs and
// 1,270–1,400 at 1 ms, with no more CPU per beat (PERF.md).
const spinBudget = time.Millisecond

// fanout is one ForEach call's parameters: blocks of chunk indices over
// [0, n), block k run with scratch[k].
type fanout struct {
	fn               func(ws *WorkerScratch, i int)
	scratch          []*WorkerScratch
	n, chunk, blocks int
	gen              uint32 // the job's fan-out number, set by post
}

// job is a Scheduler's slot on the crew's board. Its fanout is written
// by post under crew.mu and copied out under it by workers; claims go
// through claim, which names the fan-out (gen) so a worker still holding
// an earlier fan-out's copy can never claim a block of a later one.
type job struct {
	f     fanout
	claim atomic.Uint64 // gen<<32 | next unclaimed block
	left  atomic.Int32  // blocks not yet finished
	done  chan struct{} // the finisher of the last block sends one token
}

// next claims f's next unclaimed block; ok is false once every block of
// f has been claimed.
func (f *fanout) next(j *job) (block int, ok bool) {
	for {
		v := j.claim.Load()
		b := int(uint32(v))
		if uint32(v>>32) != f.gen || b >= f.blocks {
			return 0, false
		}
		if j.claim.CompareAndSwap(v, v+1) {
			if b == f.blocks-1 {
				crew.retire(j) // nothing left to claim: off the board
			}
			return b, true
		}
	}
}

// work claims and runs f's blocks until none is left to claim.
func (f *fanout) work(j *job) {
	for {
		b, ok := f.next(j)
		if !ok {
			return
		}
		ws := f.scratch[b]
		for i, hi := b*f.chunk, min((b+1)*f.chunk, f.n); i < hi; i++ {
			f.fn(ws, i)
		}
		if j.left.Add(-1) == 0 {
			j.done <- struct{}{}
		}
	}
}

// workerCrew is the process-wide worker set every Scheduler shares.
// board holds the posted jobs that may still have unclaimed blocks;
// posted mirrors its length for spinning workers, which read it without
// the lock.
type workerCrew struct {
	start  sync.Once
	mu     sync.Mutex
	wake   sync.Cond // L is &mu; parked workers wait on it
	board  []*job
	posted atomic.Int32
	parked int
}

var crew workerCrew

// post puts f on the board as j's next fan-out, starting the crew on
// first use and waking parked workers for the blocks beyond the one the
// caller claims first.
func (c *workerCrew) post(j *job, f *fanout) {
	c.start.Do(func() {
		c.wake.L = &c.mu
		for k := 1; k < runtime.GOMAXPROCS(0); k++ {
			go c.serve()
		}
	})
	c.mu.Lock()
	f.gen = j.f.gen + 1
	j.f = *f
	j.left.Store(int32(f.blocks))
	j.claim.Store(uint64(f.gen) << 32)
	c.board = append(c.board, j)
	c.posted.Store(int32(len(c.board)))
	for k := min(c.parked, f.blocks-1); k > 0; k-- {
		c.wake.Signal()
	}
	c.mu.Unlock()
}

// retire takes j off the board once its last block is claimed.
func (c *workerCrew) retire(j *job) {
	c.mu.Lock()
	if k := slices.Index(c.board, j); k >= 0 {
		c.board = slices.Delete(c.board, k, k+1)
		c.posted.Store(int32(len(c.board)))
	}
	c.mu.Unlock()
}

// serve is one crew worker: find a fan-out with a block to claim, work
// it, repeat; spin for spinBudget when there is none, then park.
func (c *workerCrew) serve() {
	for {
		j, f := c.find()
		f.work(j)
	}
}

// find returns a posted job and a copy of its fan-out, spinning and then
// parking until there is one.
func (c *workerCrew) find() (*job, fanout) {
	for start := time.Now(); ; runtime.Gosched() {
		if c.posted.Load() > 0 {
			c.mu.Lock()
			if j, f, ok := c.open(); ok {
				c.mu.Unlock()
				return j, f
			}
			c.mu.Unlock()
		}
		if time.Since(start) > spinBudget {
			c.mu.Lock()
			for {
				if j, f, ok := c.open(); ok {
					c.mu.Unlock()
					return j, f
				}
				c.parked++
				c.wake.Wait()
				c.parked--
			}
		}
	}
}

// open returns the first job on the board with a block left to claim.
// c.mu must be held.
func (c *workerCrew) open() (*job, fanout, bool) {
	for _, j := range c.board {
		if v := j.claim.Load(); uint32(v>>32) == j.f.gen && int(uint32(v)) < j.f.blocks {
			return j, j.f, true
		}
	}
	return nil, fanout{}, false
}
