package parallel

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/race"
)

// The shared token budget must bound total concurrency across nested
// launches: one implicit worker per top-level caller plus at most
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
	forChunked(8, func(lo, hi int) {
		enter()
		defer leave()
		for i := lo; i < hi; i++ {
			// Nested kernel-style loop competing for the same budget.
			forChunked(64, func(l, h int) {
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
	// Each goroutine is counted at most twice (an outer body running a
	// nested chunk inline holds two enters on one goroutine), so true
	// goroutine concurrency ≤ MaxWorkers bounds the counter by 2×MaxWorkers.
	// Without the shared budget, 8 outer chunks × 4-way inner splits would
	// push this toward 32.
	if p := atomic.LoadInt64(&peak); p > 8 {
		t.Fatalf("peak body concurrency %d exceeds 2×MaxWorkers=8", p)
	}
}

// All tokens must return to the pool once every launch completes.
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
				forChunked(32, func(lo, hi int) {
					fnRegion.Elems(4*grain, fnArgs{func(l, h int) {}})
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
	forChunked(2, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			// With 2 workers, the outer call holds the only token: the inner
			// call must fall back to the serial path.
			forEach(100, func(int) { atomic.AddInt64(&visited, 1) })
		}
	})
	if visited != 200 {
		t.Fatalf("visited %d, want 200", visited)
	}
}

// acquireWorkers applies the worker cap and the work grain and takes the
// tokens a launch then gives back — and with the budget exhausted the
// answer is 1 with nothing held.
func TestAcquireWorkersAccounting(t *testing.T) {
	old := SetMaxWorkers(4)
	defer SetMaxWorkers(old)
	idle := AvailableTokens()
	const lots = 1 << 40
	cases := []struct {
		n    int
		work int64
		want int
	}{
		{100, lots, 4},
		{3, lots, 3},
		{1, lots, 1},
		{100, 3 * grain, 3},
		{100, 2*grain - 1, 1},
		{100, 0, 1},
	}
	for _, c := range cases {
		stalledUntil.Store(0) // a loaded test machine's stall would make every answer 1
		workers := acquireWorkers(c.n, c.work)
		if workers != c.want {
			t.Errorf("acquireWorkers(%d, %d) = %d, want %d", c.n, c.work, workers, c.want)
		}
		if held := idle - AvailableTokens(); held != workers-1 {
			t.Errorf("acquireWorkers(%d, %d) = %d holds %d tokens", c.n, c.work, workers, held)
		}
		if workers > 1 {
			var visited int64
			b := fnRegion.get()
			b.data = fnArgs{func(lo, hi int) { atomic.AddInt64(&visited, int64(hi-lo)) }}
			b.launch(c.n, workers)
			if visited != int64(c.n) {
				t.Errorf("launch(%d, %d) visited %d", c.n, workers, visited)
			}
		}
		if got := AvailableTokens(); got != idle {
			t.Fatalf("after n=%d work=%d: %d tokens available, want %d", c.n, c.work, got, idle)
		}
	}
	// Nested under a call that holds every token until all its chunks are
	// done: serial, nothing taken.
	forChunked(4, func(lo, hi int) {
		if w := acquireWorkers(100, lots); w != 1 {
			t.Errorf("acquireWorkers under an exhausted budget = %d, want 1", w)
			releaseTokens(w - 1)
		}
	})
}

// fillArgs is a kernel-shaped region's data: plain slices, no closure.
type fillArgs struct{ dst []float32 }

var fillRegion = NewRegion(func(a fillArgs, lo, hi int) {
	for i := range a.dst[lo:hi] {
		a.dst[lo+i]++
	}
})

func TestElemsCoverage(t *testing.T) {
	old := SetMaxWorkers(4)
	defer SetMaxWorkers(old)
	for _, n := range []int{0, 1, 7, 2*grain - 1, 2 * grain, 5*grain + 13} {
		dst := make([]float32, n)
		fillRegion.Elems(n, fillArgs{dst})
		for i, v := range dst {
			if v != 1 {
				t.Fatalf("n=%d: index %d visited %v times", n, i, v)
			}
		}
	}
}

// A launch allocates nothing, serial or split: kernels rely on this for the
// planned executor's allocation-free steady state.
func TestElemsNoAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector makes allocation counts nondeterministic")
	}
	old := SetMaxWorkers(2)
	defer SetMaxWorkers(old)
	for _, n := range []int{grain, 16 * grain} {
		dst := make([]float32, n)
		if allocs := testing.AllocsPerRun(100, func() { fillRegion.Elems(n, fillArgs{dst}) }); allocs != 0 {
			t.Errorf("Elems(%d) allocates %.1f times per run", n, allocs)
		}
	}
	if got := AvailableTokens(); got != 1 {
		t.Fatalf("AvailableTokens after the runs = %d, want 1", got)
	}
}
