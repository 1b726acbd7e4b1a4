package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// fnArgs carries a closure as a test region's data, so the tests can write
// their bodies inline. Kernels pass plain data instead: a closure allocates.
type fnArgs struct{ f func(lo, hi int) }

var fnRegion = NewRegion(func(a fnArgs, lo, hi int) { a.f(lo, hi) })

// forChunked launches body over [0,n) with work enough for every worker.
func forChunked(n int, body func(lo, hi int)) {
	fnRegion.Run(n, int64(n)*grain, fnArgs{body})
}

// forEach is forChunked one index at a time.
func forEach(n int, body func(i int)) {
	forChunked(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	n := 1000
	counts := make([]int32, n)
	forEach(n, func(i int) {
		atomic.AddInt32(&counts[i], 1)
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

// Chunks are contiguous and disjoint, chunksPerWorker a worker, cut every
// ceil(n/(workers·chunksPerWorker)).
func TestRunChunksCoverRange(t *testing.T) {
	old := SetMaxWorkers(4)
	defer SetMaxWorkers(old)
	for _, n := range []int{1, 2, 3, 5, 7, 64, 777} {
		var mu sync.Mutex
		seen := make([]bool, n)
		var chunks []int
		body := func(lo, hi int) {
			if lo < 0 || hi > n || lo >= hi {
				t.Errorf("n=%d: bad chunk [%d,%d)", n, lo, hi)
			}
			mu.Lock()
			chunks = append(chunks, lo)
			for i := lo; i < hi; i++ {
				if seen[i] {
					t.Errorf("n=%d: index %d in two chunks", n, i)
				}
				seen[i] = true
			}
			mu.Unlock()
		}
		stalledUntil.Store(0)
		fnRegion.Run(n, int64(n)*grain, fnArgs{body})
		for i, s := range seen {
			if !s {
				t.Fatalf("n=%d: index %d never visited", n, i)
			}
		}
		workers := min(4, n)
		size := n
		if workers > 1 {
			size = (n + workers*chunksPerWorker - 1) / (workers * chunksPerWorker)
		}
		if want := (n + size - 1) / size; len(chunks) != want {
			t.Errorf("n=%d: %d chunks, want %d", n, len(chunks), want)
		}
		for _, lo := range chunks {
			if lo%size != 0 {
				t.Errorf("n=%d: chunk starts at %d, not a multiple of %d", n, lo, size)
			}
		}
	}
}

func TestForEmptyAndNegative(t *testing.T) {
	called := false
	forEach(0, func(int) { called = true })
	forEach(-5, func(int) { called = true })
	if called {
		t.Error("body called for empty range")
	}
}

func TestSetMaxWorkers(t *testing.T) {
	old := SetMaxWorkers(1)
	defer SetMaxWorkers(old)
	if MaxWorkers() != 1 {
		t.Errorf("MaxWorkers = %d", MaxWorkers())
	}
	// Serial path must still cover the range.
	sum := 0
	forEach(10, func(i int) { sum += i }) // safe: single worker
	if sum != 45 {
		t.Errorf("serial sum = %d", sum)
	}
	if prev := SetMaxWorkers(0); prev != 1 {
		t.Errorf("SetMaxWorkers returned %d, want 1", prev)
	}
	if MaxWorkers() != 1 {
		t.Error("worker cap below 1 must clamp to 1")
	}
}

// The worker cap is written by tests/ablations while concurrently running
// kernels read it, and the pool grows and shrinks with it while jobs are in
// flight; this must be race-free (run with -race), cover every index once,
// and leave the budget whole. The wavefront executor dispatches kernels from
// several goroutines at once, so the concurrent launches also exercise
// nested parallelism.
func TestConcurrentForAndSetMaxWorkers(t *testing.T) {
	old := MaxWorkers()
	defer SetMaxWorkers(old)
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for w := 1; ; w = w%4 + 1 {
			select {
			case <-stop:
				return
			default:
				SetMaxWorkers(w)
			}
		}
	}()
	var visited int64
	const loops, n = 50, 200
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for l := 0; l < loops; l++ {
				forEach(n, func(i int) { atomic.AddInt64(&visited, 1) })
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-writerDone
	if visited != 4*loops*n {
		t.Fatalf("visited %d indices, want %d", visited, 4*loops*n)
	}
	SetMaxWorkers(old)
	if got := AvailableTokens(); got != old-1 {
		t.Fatalf("AvailableTokens after drain = %d, want %d", got, old-1)
	}
}

// Property: the set of visited indices equals [0,n) for any n.
func TestForCoverageProperty(t *testing.T) {
	f := func(n uint16) bool {
		m := int(n % 500)
		var visited int64
		forEach(m, func(i int) { atomic.AddInt64(&visited, 1) })
		return visited == int64(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
