package parallel

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkElemGrain times a representative cheap elementwise body (load,
// multiply, store) serially and through Region.Elems at two workers. Where
// the elems rows first beat the serial ones is the element count at which
// an elementwise split pays, which grain puts at 2·grain one-MAC-equivalent
// elements; the ns/elem of the serial rows against the tile's ns/MAC
// (internal/topi BenchmarkGemmF32Shapes) shows how much less a memory-bound
// loop gains from a helper than its time alone suggests. Re-run with
//
//	go test ./internal/parallel -run '^$' -bench ElemGrain -benchtime 200ms
//	go test ./internal/parallel -run '^$' -bench HandOff -benchtime 3000x
//
// when retuning the constants for a new target machine.
func BenchmarkElemGrain(b *testing.B) {
	old := SetMaxWorkers(2)
	defer SetMaxWorkers(old)
	for _, n := range []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 64 << 10, 256 << 10} {
		a := scaleArgs{make([]float32, n), make([]float32, n)}
		b.Run(fmt.Sprintf("serial/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				scaleArgs.run(a, 0, n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
		})
		b.Run(fmt.Sprintf("elems/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				scaleRegion.Elems(n, a)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
		})
	}
}

type scaleArgs struct{ dst, src []float32 }

func (a scaleArgs) run(lo, hi int) {
	dst, src := a.dst[lo:hi], a.src[lo:hi]
	for i, v := range src {
		dst[i] = v * 1.5
	}
}

var scaleRegion = NewRegion(scaleArgs.run)

// BenchmarkHandOff times one launch whose two chunks cannot finish until
// both have started, so the caller waits exactly for a helper to claim the
// second: the fixed cost of a hand-off, which grain must outweigh. The
// spinning row launches back to back, finding the helper inside its spin
// window; the parked row first sleeps past the window, so every launch
// wakes a parked helper (the sleep is outside the timer).
func BenchmarkHandOff(b *testing.B) {
	old := SetMaxWorkers(2)
	defer SetMaxWorkers(old)
	for _, parked := range []bool{false, true} {
		name := "spinning"
		if parked {
			name = "parked"
		}
		b.Run(name, func(b *testing.B) {
			var started atomic.Int32
			for i := 0; i < b.N; i++ {
				if parked {
					b.StopTimer()
					time.Sleep(4 * spinWindow)
					b.StartTimer()
				}
				started.Store(0)
				barrierRegion.Run(2, 2*grain, &started)
			}
		})
	}
}

var barrierRegion = NewRegion(func(started *atomic.Int32, lo, hi int) {
	started.Add(1)
	for i := 1; started.Load() < 2; i++ {
		if i%spinLooks == 0 {
			runtime.Gosched()
		}
	}
})
