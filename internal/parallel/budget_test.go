package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
)

// The shared token budget must bound total concurrency across nested
// For/ForChunked calls: one implicit worker per top-level caller plus at most
// MaxWorkers-1 helpers, no matter how deeply kernels nest.
func TestNestedParallelismBounded(t *testing.T) {
	old := SetMaxWorkers(4)
	defer SetMaxWorkers(old)

	var cur, peak int64
	enter := func() {
		c := atomic.AddInt64(&cur, 1)
		for {
			p := atomic.LoadInt64(&peak)
			if c <= p || atomic.CompareAndSwapInt64(&peak, p, c) {
				break
			}
		}
	}
	leave := func() { atomic.AddInt64(&cur, -1) }

	var visited int64
	ForChunked(8, func(lo, hi int) {
		enter()
		defer leave()
		for i := lo; i < hi; i++ {
			// Nested kernel-style loop competing for the same budget.
			ForChunked(64, func(l, h int) {
				enter()
				defer leave()
				for j := l; j < h; j++ {
					atomic.AddInt64(&visited, 1)
				}
			})
		}
	})
	if visited != 8*64 {
		t.Fatalf("visited %d, want %d", visited, 8*64)
	}
	// Each goroutine is counted at most twice (an outer body running its
	// nested first chunk inline holds two enters on one goroutine), so true
	// goroutine concurrency ≤ MaxWorkers bounds the counter by 2×MaxWorkers.
	// Without the shared budget, 8 outer chunks × 4-way inner splits would
	// push this toward 32.
	if p := atomic.LoadInt64(&peak); p > 8 {
		t.Fatalf("peak body concurrency %d exceeds 2×MaxWorkers=8", p)
	}
}

// All tokens must return to the pool once every parallel call completes.
func TestTokensRestored(t *testing.T) {
	old := SetMaxWorkers(4)
	defer SetMaxWorkers(old)
	want := AvailableTokens()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ForChunked(32, func(lo, hi int) {
					ForElems(4*elemGrain, func(l, h int) {})
				})
			}
		}()
	}
	wg.Wait()
	if got := AvailableTokens(); got != want {
		t.Fatalf("AvailableTokens after drain = %d, want %d", got, want)
	}
}

// A caller that nests under an exhausted budget must still make progress
// (serial execution), never deadlock.
func TestExhaustedBudgetRunsSerially(t *testing.T) {
	old := SetMaxWorkers(2)
	defer SetMaxWorkers(old)
	var visited int64
	ForChunked(2, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			// With 2 workers, the outer call holds the only token: the inner
			// call must fall back to the serial path.
			For(100, func(int) { atomic.AddInt64(&visited, 1) })
		}
	})
	if visited != 200 {
		t.Fatalf("visited %d, want 200", visited)
	}
}

// AcquireWorkers and RunChunks are ForChunkedOpts in two steps: the first
// applies the same limits and takes the same tokens, the second gives them
// back — and with the budget exhausted the answer is 1 with nothing held.
func TestAcquireWorkersAccounting(t *testing.T) {
	old := SetMaxWorkers(4)
	defer SetMaxWorkers(old)
	idle := AvailableTokens()
	cases := []struct {
		n    int
		o    ChunkOpts
		want int
	}{
		{100, ChunkOpts{}, 4},
		{3, ChunkOpts{}, 3},
		{1, ChunkOpts{}, 1},
		{100, ChunkOpts{MaxWorkers: 2}, 2},
		{100, ChunkOpts{MaxWorkers: 1}, 1},
		{100, ChunkOpts{MinGrain: 40}, 2},
		{100, ChunkOpts{MinGrain: 60}, 1},
	}
	for _, c := range cases {
		workers := AcquireWorkers(c.n, c.o)
		if workers != c.want {
			t.Errorf("AcquireWorkers(%d, %+v) = %d, want %d", c.n, c.o, workers, c.want)
		}
		if held := idle - AvailableTokens(); held != workers-1 {
			t.Errorf("AcquireWorkers(%d, %+v) = %d holds %d tokens", c.n, c.o, workers, held)
		}
		if workers > 1 {
			var visited int64
			RunChunks(c.n, workers, func(lo, hi int) { atomic.AddInt64(&visited, int64(hi-lo)) })
			if visited != int64(c.n) {
				t.Errorf("RunChunks(%d, %d) visited %d", c.n, workers, visited)
			}
		}
		if got := AvailableTokens(); got != idle {
			t.Fatalf("after n=%d %+v: %d tokens available, want %d", c.n, c.o, got, idle)
		}
	}
	// Nested under a call that holds every token until all its chunks are
	// done: serial, nothing taken.
	ForChunked(4, func(lo, hi int) {
		if w := AcquireWorkers(100, ChunkOpts{}); w != 1 {
			t.Errorf("AcquireWorkers under an exhausted budget = %d, want 1", w)
			releaseTokens(w - 1)
		}
	})
}

func TestForElemsCoverage(t *testing.T) {
	for _, n := range []int{0, 1, 7, elemGrain - 1, 2 * elemGrain, 5*elemGrain + 13} {
		var visited int64
		var mu sync.Mutex
		seen := make(map[int]bool, n)
		ForElems(n, func(lo, hi int) {
			atomic.AddInt64(&visited, int64(hi-lo))
			mu.Lock()
			for i := lo; i < hi; i++ {
				if seen[i] {
					t.Errorf("n=%d: index %d in two chunks", n, i)
				}
				seen[i] = true
			}
			mu.Unlock()
		})
		if visited != int64(n) {
			t.Fatalf("n=%d: visited %d", n, visited)
		}
	}
}

// Serial ForElems below the grain must not allocate (kernels rely on this
// for the planned executor's allocation-free steady state).
func TestForElemsSerialNoAlloc(t *testing.T) {
	dst := make([]float32, elemGrain)
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = 1
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { ForElems(len(dst), body) }); allocs != 0 {
		t.Fatalf("serial ForElems allocates %.1f times per run", allocs)
	}
}
