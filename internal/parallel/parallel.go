// Package parallel runs the TOPI CPU kernels' loops and the planned
// executor's wavefront levels on a persistent pool of helper goroutines, the
// way TVM's CPU runtime launches a parallel region (TVMBackendParallelLaunch,
// arXiv 1802.04799): a region is a static function plus its closure data,
// and a launch publishes it to long-lived helpers instead of starting
// goroutines. Kernels parallelize over their outermost independent dimension
// (batch×output-row chunks for convolution, N-panel groups for GEMM), which
// keeps each chunk's output disjoint, so no locking is needed and a chunk
// computes the same bits whoever runs it.
//
// A launch splits [0,n) into chunksPerWorker contiguous chunks per worker
// and hands the job to helpers. Workers claim chunks from an atomic
// counter: the caller claims until none is left, so it runs every chunk no
// helper got to and then waits only for chunks already running. A helper
// that arrives late finds nothing to claim. A split therefore never costs
// more than the serial loop plus the hand-off itself, whether or not a
// helper is awake. After each job a helper spins for spinWindow, yielding
// with runtime.Gosched between looks so it never starves other goroutines,
// and then parks until a launch wakes it.
//
// Whether to split at all is the caller's estimate of its work: a range is
// handed to at most work/grain workers, so a kernel too small to pay for a
// hand-off stays serial and wakes nobody. A launch has no per-call options:
// the range, its work and the shared budget decide the split, and the
// package's constants (grain, chunksPerWorker, spinWindow) are measured
// once for every caller. A caller that finds a helper's
// chunk stalled — its thread descheduled on a loaded host — holds splits
// off for stallBackoff.
//
// Inter-op (wavefront) and intra-op (kernel chunk) parallelism share one
// bounded budget: a global pool of MaxWorkers-1 "extra worker" tokens. A
// launch takes at most as many helpers as tokens it could acquire and
// returns them when it completes. Acquisition never blocks — when the
// executor's wavefront has already claimed the budget, a kernel nested
// inside one of its tasks simply runs serially instead of oversubscribing
// GOMAXPROCS with a second layer of helpers.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// maxWorkers caps total parallelism; GOMAXPROCS by default. It is read on
// every launch — possibly from concurrently executing kernels — while tests
// and ablations write it, so access is atomic.
var maxWorkers atomic.Int64

// tokens counts the extra-worker slots currently available (cap-1 when idle:
// the calling goroutine itself is the implicit first worker and needs no
// token). Launches acquire with a CAS loop and release on completion; the
// counter can dip below zero transiently while SetMaxWorkers shrinks the cap
// under outstanding work, which simply starves acquisition until releases
// catch up.
var tokens atomic.Int64

func init() {
	n := int64(runtime.GOMAXPROCS(0))
	maxWorkers.Store(n)
	tokens.Store(n - 1)
}

// SetMaxWorkers overrides the worker cap (testing and the serial-kernel
// ablation use 1). Returns the previous value. n < 1 is treated as 1.
func SetMaxWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	old := maxWorkers.Swap(int64(n))
	// Adjust the available budget by the cap delta. Concurrent calls
	// telescope: each Swap observes the previous value exactly once, so the
	// summed deltas always equal final-minus-initial.
	tokens.Add(int64(n) - old)
	return int(old)
}

// MaxWorkers returns the current worker cap.
func MaxWorkers() int { return int(maxWorkers.Load()) }

// AvailableTokens reports how many extra-worker slots are currently free.
// Intended for tests and monitoring; the value is immediately stale.
func AvailableTokens() int { return int(tokens.Load()) }

// acquireTokens takes up to want extra-worker slots from the shared budget
// without blocking, returning how many it got (possibly zero).
func acquireTokens(want int) int {
	if want <= 0 {
		return 0
	}
	for {
		avail := tokens.Load()
		if avail <= 0 {
			return 0
		}
		take := int64(want)
		if take > avail {
			take = avail
		}
		if tokens.CompareAndSwap(avail, avail-take) {
			return int(take)
		}
	}
}

func releaseTokens(n int) {
	if n > 0 {
		tokens.Add(int64(n))
	}
}

// grain is the work each worker of a split must own, in MAC-equivalents:
// the cost model's count (soc.MACs) — multiply-accumulates for conv and
// dense, window taps for pools, one per element for elementwise loops. A
// range smaller than two grains runs serially. On a 2-core AVX-512 host
// (absolute times vary ±30 % with the host's load) BenchmarkHandOff puts a
// hand-off to a spinning helper at ≈ 1.7–1.9 µs round trip and to a parked
// one at ≈ 8 µs, BenchmarkGemmF32Shapes the YMM tile at ≈ 20 GMAC/s, and
// BenchmarkElemGrain a cheap element at ≈ 1.2 ns that splits profitably
// only from ≈ 16k elements: a memory-bound loop gains less from a second
// core than the compute-bound tile. 2^13 puts that crossover at 2·grain —
// the 8k-elements-a-worker elemGrain this constant replaces — and lets
// GEMM and conv launches of 16k MACs and up split. The end-to-end sweep
// (3 seeds of 8 s each at a 50 µs spinWindow, median p50_ms; parent
// 3.727 ms on showcase_frames, 0.368 ms on fleet_light): 2^13 reads 3.055
// and 0.348; 2^14 3.175 and 0.355; 2^12 2.876 but 0.415, as the tiny
// serving model's 13.8k-MAC convolution splits; no grain at all 2.796 (one
// run 5.51) and 0.415.
const grain = 1 << 13

// spinWindow is how long an idle helper keeps looking for a job before it
// parks. Back-to-back launches then find it awake instead of paying a
// wake-up each, which on a VM also means an IPI to a halted vCPU: at 50 µs
// a frame's launches still found the helper parked one time in five. In
// the sweep recorded at grain (50 µs window) showcase_frames p50_ms read
// 3.628 ms with no spin against 3.055 ms with 50 µs, the parent at 3.727.
// Longer windows, three interleaved runs of 1 500 in-process ProcessFrame
// calls each: p50 3.05–3.65 ms at 50 µs, 2.82–3.34 at 200, 2.56–2.71 at
// 500, 2.54–2.73 at 1 000; and 500 against 50 µs in alternated 8 s
// benchmark pairs: showcase_frames p50_ms 2.76/2.70/2.91 against
// 2.90/3.09/3.21, serve_heavy 4.30/4.46 against 4.87/5.05, fleet_light
// (whose tiny model never splits) 0.339 against 0.335. The helper yields
// between looks (spinLooks), so serving goroutines keep running meanwhile.
const spinWindow = 500 * time.Microsecond

// spinLooks is how many times a spinning goroutine loads the word it waits
// on between two runtime.Gosched calls, which pass through the scheduler's
// global queue lock: about as long as one Gosched. BenchmarkHandOff's
// spinning row reads ≈ 1.8 µs with it against 1.9–2.3 µs yielding after
// every look.
const spinLooks = 128

// chunksPerWorker is how many chunks a split cuts per worker. Claimed one at
// a time, several chunks let a helper that arrives late still take a share
// instead of finding the caller already inside the second half: with one
// chunk a worker the caller ran ≈ 64 % of a frame's chunk time. In-process
// ProcessFrame p25 read 3.04–3.11 ms at one chunk, 2.85–3.04 at two and
// 2.72–2.90 at four or eight, and in the sweep recorded at grain
// showcase_frames p50_ms read 3.313 ms at one against 3.055 at four. A
// chunk is still a run of the caller's units (conv rows, GEMM panel
// groups), so no output bit depends on the count.
const chunksPerWorker = 4

// acquireWorkers decides how many workers (the caller included) a range of
// n iterations doing work MAC-equivalents may use under the work grain, the
// worker cap and the shared budget right now. A result above 1 holds that
// many minus one tokens, which the launch returns; at 1 nothing is held.
func acquireWorkers(n int, work int64) int {
	workers := min(MaxWorkers(), n)
	if byWork := work / grain; int64(workers) > byWork {
		workers = int(byWork)
	}
	if workers <= 1 || time.Now().UnixNano() < stalledUntil.Load() {
		return 1
	}
	return 1 + acquireTokens(workers-1)
}

// stalledUntil (Unix ns) holds splits off after a caller waited for a
// helper's chunk longer than its own chunks took in all (and over 100 µs):
// the helper's thread was descheduled mid-chunk. On a loaded host that
// recurs, each time costing a split a scheduler time slice, while a serial
// launch loses nothing; the goroutine-per-chunk launch this pool replaced
// dodged it because a waiting caller ran its own unstarted helper
// goroutines. With two CPU-bound processes sharing the 2-core host,
// showcase_frames p50_ms (three 5–6 s runs each) read 7.4–7.6 ms with the
// backoff, 7.5–14.0 without it and 7.4–11.4 at the parent; unloaded,
// 2.59–2.88 with it, 2.47–2.74 without and 3.92–4.06 at the parent.
var stalledUntil atomic.Int64

// stallBackoff is how long splits stay off after a stall: a few frames, a
// few host time slices.
const stallBackoff = 10 * time.Millisecond

// Region is one parallel loop in TVM's FLambda + cdata form: a static
// function fn(data, lo, hi) that runs iterations [lo, hi), and the closure
// data T a launch hands it by value. Declare one per loop at package level
// (NewRegion of a method expression or plain function). A split launch
// copies data into a job record taken from the region's free list, so
// neither a closure nor the caller's data reaches the heap and a
// steady-state launch allocates nothing; the record is never read for data
// once the launch has returned.
type Region[T any] struct {
	fn   func(T, int, int)
	mu   sync.Mutex
	free *box[T] // recycled job records, linked through box.nextFree
}

// NewRegion returns the region running fn.
func NewRegion[T any](fn func(data T, lo, hi int)) *Region[T] {
	return &Region[T]{fn: fn}
}

// Run runs the region over [0,n) with data: split into chunks that the
// caller and idle helpers claim when the range's work (MAC-equivalents, the
// whole range) pays for more than one worker and the budget has tokens, on
// the caller alone otherwise. It returns once every chunk has run.
//
//np:hotpath
func (r *Region[T]) Run(n int, work int64, data T) {
	if n <= 0 {
		return
	}
	workers := acquireWorkers(n, work)
	if workers == 1 {
		r.fn(data, 0, n)
		return
	}
	b := r.get()
	b.data = data
	b.launch(n, workers)
}

// Elems is Run for a cheap elementwise loop over n elements: one
// MAC-equivalent each.
//
//np:hotpath
func (r *Region[T]) Elems(n int, data T) {
	r.Run(n, int64(n), data)
}

// get pops a job record off the free list, or makes one.
func (r *Region[T]) get() *box[T] {
	r.mu.Lock()
	b := r.free
	if b != nil {
		r.free = b.nextFree
	}
	r.mu.Unlock()
	if b == nil {
		b = &box[T]{region: r}
		b.job.body = b
		b.job.fin = make(chan struct{}, 1)
	}
	return b
}

// box is a region's job record: the job the pool sees and the closure data
// its chunks read.
type box[T any] struct {
	job
	region   *Region[T]
	data     T
	nextFree *box[T]
}

func (b *box[T]) chunk(lo, hi int) { b.region.fn(b.data, lo, hi) }

// recycle clears the closure data and returns the record to its region's
// free list; the last holder of a reference calls it.
func (b *box[T]) recycle() {
	var zero T
	b.data = zero
	r := b.region
	r.mu.Lock()
	b.nextFree = r.free
	r.free = b
	r.mu.Unlock()
}

// chunker is a job record's typed side: its chunk body and its way back to
// the free list.
type chunker interface {
	chunk(lo, hi int)
	recycle()
}

// job is one launch as the pool sees it. Fields above the atomics are
// written by the launching caller before it posts and only read afterwards.
type job struct {
	body    chunker
	n, size int
	chunks  int32
	next    atomic.Int32 // the next unclaimed chunk
	left    atomic.Int32 // chunks not yet finished
	refs    atomic.Int32 // the caller plus every helper that joined
	sleep   atomic.Int32 // awake, asleep: the caller's wait; finished: the last chunk's
	fin     chan struct{}
}

// launch runs [0,n) in chunksPerWorker chunks a worker on the caller and
// any helper that joins in time, then returns the workers-1 tokens
// acquireWorkers took.
//
//np:hotpath
func (j *job) launch(n, workers int) {
	j.n, j.size = n, (n+workers*chunksPerWorker-1)/(workers*chunksPerWorker)
	j.chunks = int32((n + j.size - 1) / j.size)
	j.next.Store(0)
	j.left.Store(j.chunks)
	j.refs.Store(1)
	j.sleep.Store(awake)
	post(j, workers-1)
	start := time.Now()
	if !j.work() {
		own := time.Since(start)
		j.wait()
		if waited := time.Since(start) - own; waited > own && waited > 100*time.Microsecond {
			stalledUntil.Store(time.Now().Add(stallBackoff).UnixNano())
		}
	}
	releaseTokens(workers - 1)
	j.drop()
}

// work claims and runs chunks until none is left, and reports whether the
// chunk it finished last was the job's last.
//
//np:hotpath
func (j *job) work() bool {
	for {
		c := j.next.Add(1) - 1
		if c >= j.chunks {
			return false
		}
		lo := int(c) * j.size
		j.body.chunk(lo, min(lo+j.size, j.n))
		if j.left.Add(-1) == 0 {
			return true
		}
	}
}

// The caller's wait and the last chunk's finish meet on job.sleep: the
// caller moves it from awake to asleep before it blocks on fin, the helper
// that finishes the last chunk swaps in finished and signals fin only if it
// found the caller asleep. Neither pays a channel operation while the other
// is still looking.
const (
	awake int32 = iota
	asleep
	finished
)

// wait returns once the chunks helpers claimed have finished: it looks for
// spinWindow and then sleeps on fin.
//
//np:hotpath
func (j *job) wait() {
	start := time.Now()
	for {
		for i := 0; i < spinLooks; i++ {
			if j.left.Load() == 0 {
				return
			}
		}
		if time.Since(start) >= spinWindow {
			if j.sleep.CompareAndSwap(awake, asleep) {
				<-j.fin
			}
			return
		}
		runtime.Gosched()
	}
}

// finish is the last chunk's side of wait, run by the helper that
// finished it.
func (j *job) finish() {
	if j.sleep.Swap(finished) == asleep {
		j.fin <- struct{}{}
	}
}

// drop releases one reference; the last recycles the record.
func (j *job) drop() {
	if j.refs.Add(-1) == 0 {
		j.body.recycle()
	}
}

// pool is the helper pool. A launch hands its job to helpers directly,
// through each helper's own state word and mailbox, so a hand-off takes no
// lock; mu guards only the registry's growth. Helpers live as long as the
// process, parked while idle, like the threads of TVM's pool; there are at
// most as many as the largest MaxWorkers-1 ever set.
var pool struct {
	mu      sync.Mutex
	helpers atomic.Pointer[[]*helper] // every helper started, in start order
}

// spins counts spin-window iterations across all helpers (tests and
// benchmarks read it to see the helpers park).
var spins atomic.Int64

// A helper's state word. A launch moves a helper to handed and then
// delivers the job: down wake if it was parked, into mail otherwise. A busy
// helper takes its mail when it finishes the job it is on — late, it finds
// every chunk claimed and runs none.
const (
	busy int32 = iota
	spinning
	parked
	handed
)

type helper struct {
	id    int // index in pool.helpers: only the first MaxWorkers-1 are used
	state atomic.Int32
	mail  atomic.Pointer[job]
	wake  chan *job
}

// post hands j to up to slots helpers among the first MaxWorkers-1 —
// spinning ones first, which react within a look; then busy and parked
// ones; then new ones while the pool is smaller than that. It never waits
// for a helper.
//
//np:hotpath
func post(j *job, slots int) {
	hs := registry()
	usable := min(len(hs), MaxWorkers()-1)
	for _, spinningOnly := range [...]bool{true, false} {
		for i := 0; i < usable && slots > 0; i++ {
			if hs[i].hand(j, spinningOnly) {
				slots--
			}
		}
	}
	if slots > 0 {
		pool.mu.Lock()
		for len(registry()) < MaxWorkers()-1 && slots > 0 {
			j.refs.Add(1)
			startHelper(j)
			slots--
		}
		pool.mu.Unlock()
	}
}

// hand gives j to h unless h already has a job waiting, or, with
// spinningOnly, unless h is spinning: a busy helper takes the job when it
// is free, at no cost to the caller; a parked one is woken, which the caller
// pays for.
//
//np:hotpath
func (h *helper) hand(j *job, spinningOnly bool) bool {
	for {
		s := h.state.Load()
		if s == handed || spinningOnly && s != spinning {
			return false
		}
		if h.state.CompareAndSwap(s, handed) {
			j.refs.Add(1)
			if s == parked {
				h.wake <- j
			} else {
				h.mail.Store(j)
			}
			return true
		}
	}
}

// registry returns the helpers started so far.
func registry() []*helper {
	if hs := pool.helpers.Load(); hs != nil {
		return *hs
	}
	return nil
}

// startHelper starts one more helper on j. pool.mu is held.
func startHelper(j *job) {
	hs := registry()
	h := &helper{id: len(hs), wake: make(chan *job, 1)}
	grown := append(hs[:len(hs):len(hs)], h)
	pool.helpers.Store(&grown)
	go h.loop(j)
}

// loop runs the jobs the helper is handed.
func (h *helper) loop(j *job) {
	for {
		if j.work() {
			j.finish()
		}
		j.drop()
		j = h.next()
	}
}

// next waits for the helper's next job: it spins for spinWindow looking at
// its mailbox, yielding between looks, then parks until a launch wakes it.
func (h *helper) next() *job {
	if !h.state.CompareAndSwap(busy, spinning) {
		return h.take() // handed while busy
	}
	start := time.Now()
	for {
		for i := 0; i < spinLooks; i++ {
			if h.mail.Load() != nil {
				return h.take()
			}
		}
		if time.Since(start) >= spinWindow {
			break
		}
		spins.Add(1)
		runtime.Gosched()
	}
	if h.state.CompareAndSwap(spinning, parked) {
		j := <-h.wake
		h.state.Store(busy)
		return j
	}
	return h.take() // handed as the window closed
}

// take collects a job handed into the mailbox; the launch stores it right
// after moving the state to handed.
func (h *helper) take() *job {
	for {
		if j := h.mail.Swap(nil); j != nil {
			h.state.Store(busy)
			return j
		}
		runtime.Gosched()
	}
}
