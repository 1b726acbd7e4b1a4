package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Many goroutines launching at once share the helpers: every index of every
// launch runs exactly once, and the budget comes back whole.
func TestConcurrentLaunchesExactlyOnce(t *testing.T) {
	old := SetMaxWorkers(4)
	defer SetMaxWorkers(old)
	const goroutines, loops, n = 8, 100, 97
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			counts := make([]int32, n)
			for l := 0; l < loops; l++ {
				forEach(n, func(i int) { atomic.AddInt32(&counts[i], 1) })
				for i, c := range counts {
					if c != int32(l+1) {
						t.Errorf("launch %d: index %d visited %d times in all", l, i, c)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := AvailableTokens(); got != 3 {
		t.Fatalf("AvailableTokens after drain = %d, want 3", got)
	}
}

// blockHelpers launches a two-chunk job from a new goroutine whose chunks
// both block until release is closed, and returns once both are running:
// then the caller and the one helper the pool uses at MaxWorkers 2 are held.
func blockHelpers(t *testing.T) (release chan struct{}, done chan struct{}) {
	t.Helper()
	// A helper still holding a job handed to it late takes no other; wait
	// until the one helper the pool uses is idle.
	deadline := time.Now().Add(10 * time.Second)
	for hs := registry(); len(hs) > 0; {
		if s := hs[0].state.Load(); s == spinning || s == parked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the pool's helper never went idle")
		}
		time.Sleep(10 * time.Microsecond)
	}
	release, done = make(chan struct{}), make(chan struct{})
	stalledUntil.Store(0)
	var running atomic.Int32
	go func() {
		defer close(done)
		forChunked(2, func(lo, hi int) {
			running.Add(1)
			<-release
		})
	}()
	for running.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("no helper joined the blocking job")
		}
		time.Sleep(10 * time.Microsecond)
	}
	return release, done
}

// With every helper held by a blocked job, a split launch is handed to a
// helper that cannot start it: the caller runs every chunk itself and
// returns without waiting for it.
func TestCallerNeverWaitsForUnstartedHelper(t *testing.T) {
	old := SetMaxWorkers(2)
	defer SetMaxWorkers(old)
	release, done := blockHelpers(t)
	// The blocked job holds the only token; lend the second launch one
	// without growing the cap, so no new helper is started for it.
	tokens.Add(1)
	stalledUntil.Store(0)
	var visited int64
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		forEach(64, func(int) { atomic.AddInt64(&visited, 1) })
	}()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("the launch waited for a helper that never started")
	}
	tokens.Add(-1)
	if visited != 64 {
		t.Errorf("visited %d, want 64", visited)
	}
	select {
	case <-done:
		t.Fatal("the blocking job finished early")
	default:
	}
	close(release)
	<-done
	if got := AvailableTokens(); got != 1 {
		t.Fatalf("AvailableTokens after drain = %d, want 1", got)
	}
}

// A helper handed a job while busy joins only after its caller has claimed
// and run every chunk: it runs none, and the last reference recycles the
// record.
func TestLateHelperRunsNoChunk(t *testing.T) {
	old := SetMaxWorkers(2)
	defer SetMaxWorkers(old)
	release, done := blockHelpers(t)

	// launch, one step at a time: hand the busy helper the job and run
	// both chunks on the caller before it can look.
	var runs [2]atomic.Int32
	b := fnRegion.get()
	b.data = fnArgs{func(lo, hi int) { runs[lo].Add(1) }}
	j := &b.job
	j.n, j.size, j.chunks = 2, 1, 2
	j.next.Store(0)
	j.left.Store(2)
	j.refs.Store(1)
	post(j, 1)
	if got := j.refs.Load(); got != 2 {
		t.Fatalf("after post the job has %d references, want the caller's and the busy helper's", got)
	}
	if !j.work() {
		t.Fatal("the caller did not finish the last chunk")
	}

	// Free the helper: it finishes the blocking job, collects the handed
	// one after the fact and lets it go.
	close(release)
	<-done
	deadline := time.Now().Add(10 * time.Second)
	for j.refs.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("the late helper kept its reference")
		}
		time.Sleep(10 * time.Microsecond)
	}
	if a, c := runs[0].Load(), runs[1].Load(); a != 1 || c != 1 {
		t.Fatalf("chunks ran %d and %d times, want once each", a, c)
	}
	j.drop()
	if fnRegion.get() != b {
		t.Fatal("the record did not return to the free list")
	}
}

// After a job, a helper spins for spinWindow and then parks: the spin
// counter moves while it looks and stops once it sleeps.
func TestHelpersParkAfterSpinWindow(t *testing.T) {
	old := SetMaxWorkers(2)
	defer SetMaxWorkers(old)
	before := spins.Load()
	for i := 0; i < 100 && spins.Load() == before; i++ {
		stalledUntil.Store(0)
		forChunked(2, func(lo, hi int) { time.Sleep(time.Microsecond) })
		time.Sleep(spinWindow / 2)
	}
	if spins.Load() == before {
		t.Fatal("no helper spun after its job")
	}
	time.Sleep(20 * spinWindow)
	parked := spins.Load()
	time.Sleep(20 * spinWindow)
	if got := spins.Load(); got != parked {
		t.Fatalf("helpers spun %d more times %v after their window closed", got-parked, 20*spinWindow)
	}
}

// A caller that waits for a helper's chunk longer than its own chunks took
// holds splits off for stallBackoff — the helper's thread was descheduled —
// and splits again after it.
func TestStallHoldsSplitsOff(t *testing.T) {
	old := SetMaxWorkers(2)
	defer SetMaxWorkers(old)
	defer stalledUntil.Store(0)
	stalledUntil.Store(0)
	for i := 0; i < 20 && stalledUntil.Load() == 0; i++ {
		// Both chunks start before either finishes, so each runs on its own
		// goroutine; the one the helper claims second sleeps.
		var started atomic.Int32
		forChunked(2, func(lo, hi int) {
			started.Add(1)
			for started.Load() < 2 {
				runtime.Gosched()
			}
			if lo == 1 {
				time.Sleep(2 * time.Millisecond)
			}
		})
	}
	if stalledUntil.Load() == 0 {
		t.Fatal("a 2 ms helper chunk against an instant caller chunk was never taken for a stall")
	}
	until := time.Unix(0, stalledUntil.Load())
	w := acquireWorkers(100, 1<<40)
	releaseTokens(w - 1)
	if w != 1 && time.Now().Before(until) {
		t.Fatalf("acquireWorkers during the backoff = %d, want 1", w)
	}
	time.Sleep(time.Until(until))
	w = acquireWorkers(100, 1<<40)
	releaseTokens(w - 1)
	if w != 2 {
		t.Fatalf("acquireWorkers after the backoff = %d, want 2", w)
	}
}
