// Package parallel provides the goroutine work-splitting helpers used by the
// TOPI CPU kernels and the planned executor's wavefront scheduler. Kernels
// parallelize over their outermost independent dimension (batch×output-row
// tiles for convolution, N-panel tiles for GEMM), which keeps per-goroutine
// state disjoint so no locking is needed.
//
// Inter-op (wavefront) and intra-op (kernel tile) parallelism share one
// bounded budget: a global pool of MaxWorkers-1 "extra worker" tokens. Every
// For/ForChunked/ForElems call runs part of the range on the calling
// goroutine and spawns at most as many helper goroutines as tokens it could
// acquire; tokens are returned when the call completes. Acquisition never
// blocks — when the executor's wavefront has already claimed the budget, a
// kernel nested inside one of its tasks simply runs serially instead of
// oversubscribing GOMAXPROCS with a second layer of goroutines.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxWorkers caps total parallelism; GOMAXPROCS by default. It is read on
// every For/ForChunked call — possibly from concurrently executing kernels —
// while tests and ablations write it, so access is atomic.
var maxWorkers atomic.Int64

// tokens counts the extra-worker slots currently available (cap-1 when idle:
// the calling goroutine itself is the implicit first worker and needs no
// token). Helpers acquire with a CAS loop and release on completion; the
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

// elemGrain is the serial cutoff for ForElems, in elements of a cheap
// (load/op/store) elementwise loop. Derived from BenchmarkSpawnJoin and
// BenchmarkElemGrain in grain_bench_test.go: spawning and joining one helper
// goroutine costs on the order of a microsecond, while a simple float32 map
// loop runs at roughly 1 element/ns, so a helper must own several thousand
// elements before the split pays for itself. 8k per worker gives the
// coordination cost a ~4× margin and keeps small activation tensors (the
// common case in the paper's mobile models: 56×56×8 tiles, softmax rows,
// scalar epilogues) on the allocation-free serial path.
const elemGrain = 8 << 10

// For runs body(i) for every i in [0,n), splitting the range into contiguous
// chunks: one executed inline by the caller, the rest by helper goroutines —
// at most as many as the shared budget has tokens. It runs serially when n
// is small, only one worker is allowed, or the budget is exhausted (e.g.
// when nested under a wavefront task that already owns the workers).
func For(n int, body func(i int)) {
	if n <= 0 {
		return
	}
	// Serial fast path: skip the chunk-closure wrapper entirely, so a
	// single-worker For is allocation-free (the planned executor's
	// steady-state hot loop runs through here on every kernel).
	if n == 1 || MaxWorkers() <= 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	ForChunked(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ChunkOpts bounds one ForChunkedOpts call's parallelism. The zero value
// applies no per-call limits (shared-budget behavior, identical to
// ForChunked). The autotuner (internal/tune) turns these as knobs: a kernel
// that benches faster with fewer workers or coarser chunks carries its tuned
// limits through the dispatch table.
type ChunkOpts struct {
	// MaxWorkers caps the total workers (including the caller) used by this
	// call, on top of the shared budget. 0 means no per-call cap.
	MaxWorkers int
	// MinGrain is the minimum chunk size: the range is never split finer
	// than MinGrain iterations per worker. 0 means no minimum.
	MinGrain int
}

// ForChunked splits [0,n) into contiguous [lo,hi) chunks, one per worker.
// Use this form when the body can amortize per-chunk setup (e.g. scratch
// buffers for im2col). The caller always executes the first chunk itself;
// helper goroutines are spawned only for tokens acquired from the shared
// inter/intra-op budget, so nested calls degrade to serial instead of
// oversubscribing.
func ForChunked(n int, body func(lo, hi int)) {
	ForChunkedOpts(n, ChunkOpts{}, body)
}

// ForChunkedOpts is ForChunked with per-call parallelism limits.
func ForChunkedOpts(n int, o ChunkOpts, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers := AcquireWorkers(n, o); workers > 1 {
		RunChunks(n, workers, body)
	} else {
		body(0, n)
	}
}

// AcquireWorkers is the deciding half of ForChunkedOpts: how many workers
// (the caller included) a range of n may use under o, the worker cap and the
// shared budget right now. A result above 1 holds that many minus one tokens
// and must be passed to RunChunks, which returns them; at 1 nothing is held
// and the caller runs [0,n) itself. A kernel that would need a closure only
// to hand its loop to RunChunks asks first, and on the serial answer — every
// GEMM nested under an already-parallel conv row loop — calls the loop
// directly and allocates nothing.
func AcquireWorkers(n int, o ChunkOpts) int {
	workers := MaxWorkers()
	if o.MaxWorkers > 0 && workers > o.MaxWorkers {
		workers = o.MaxWorkers
	}
	if workers > n {
		workers = n
	}
	if o.MinGrain > 1 {
		if byGrain := n / o.MinGrain; workers > byGrain {
			workers = byGrain
		}
	}
	if workers > 1 {
		workers = 1 + acquireTokens(workers-1)
	}
	return workers
}

// RunChunks is the running half: it splits [0,n) into one contiguous chunk
// per worker, runs the first on the caller and the rest on helper goroutines,
// waits, and releases the workers-1 tokens AcquireWorkers took.
func RunChunks(n, workers int, body func(lo, hi int)) {
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := chunk; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	body(0, chunk) // caller is the first worker
	wg.Wait()
	releaseTokens(workers - 1)
}

// ForElems is ForChunked for cheap elementwise loops: ranges shorter than
// the benchmark-derived elemGrain run serially with zero coordination, and
// longer ranges never split finer than elemGrain elements per worker.
func ForElems(n int, body func(lo, hi int)) {
	if n < 2*elemGrain {
		if n > 0 {
			body(0, n)
		}
		return
	}
	ForChunkedOpts(n, ChunkOpts{MinGrain: elemGrain}, body)
}
