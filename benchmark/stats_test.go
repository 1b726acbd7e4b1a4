package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{1, 2, 3, 4}); !near(got, 2.5) {
		t.Errorf("median of even sample = %v, want 2.5", got)
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 {
		t.Error("empty sample must read 0")
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
}

// The "at least ten samples beyond it" rule decides which percentile a
// workload's tail_ms may quote.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{1000, 99, 10}, {999, 99, 9}, {360, 95, 18}, {60, 75, 15}, {60, 99, 0},
	} {
		if got := samplesBeyond(c.n, c.p); got != c.want {
			t.Errorf("samplesBeyond(%d, p%g) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{20000, 99.9}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {0, 50},
	} {
		if got := highestSupportedTail(c.n); got != c.want {
			t.Errorf("highestSupportedTail(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
}

// Every workload's fixed tail percentile must hold the rule at the sample
// count CALIBRATION.md records for a 12 s window (rounded down).
func TestWorkloadTailPercentilesAreSupported(t *testing.T) {
	samples := map[string]int{
		"compile_byoc": 55, "compile_pure": 280, "serve_heavy": 900,
		"serve_light": 25000, "fleet_light": 40000, "showcase_frames": 400,
	}
	for _, w := range workloads {
		n, ok := samples[w.Name]
		if !ok {
			t.Fatalf("no calibrated sample count for %s", w.Name)
		}
		if b := samplesBeyond(n, w.TailPct); b < minTailSamples {
			t.Errorf("%s: p%g leaves %d samples beyond it at %d samples", w.Name, w.TailPct, b, n)
		}
	}
}

func TestGeomeanAndMean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); !near(got, 4) {
		t.Errorf("geomean = %v, want 4", got)
	}
	if got := mean([]float64{1, 2, 6}); !near(got, 3) {
		t.Errorf("mean = %v, want 3", got)
	}
	if geomean(nil) != 0 || mean(nil) != 0 {
		t.Error("empty sample must read 0")
	}
}

// quartileSpread must agree with Python's statistics.quantiles(v, n=4), which
// is what the acceptance check uses: for 1..10 the quartiles are 2.75, 5.5
// and 8.25.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("quartileSpread(1..10) = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if got, want := quartileSpread([]float64{1, 2, 4, 8, 16}), (12.0-1.5)/4.0; !near(got, want) {
		t.Errorf("quartileSpread(1,2,4,8,16) = %v, want %v", got, want)
	}
	if quartileSpread([]float64{3}) != 0 {
		t.Error("a single run has no spread")
	}
}

func TestPairedDiffMedian(t *testing.T) {
	a := []float64{1, 2, 3, 10}
	b := []float64{2, 4, 3.5, 10}
	if got := pairedDiffMedian(a, b); !near(got, 0.75) {
		t.Errorf("pairedDiffMedian = %v, want 0.75", got)
	}
}

func TestSimHelpers(t *testing.T) {
	if !sameSim(1.0, 1.0+1e-15) || sameSim(1.0, 1.0+1e-9) {
		t.Error("sameSim must absorb summation order and nothing more")
	}
	if got := roundSim(4.2022914961234567); got != 4.202291496 {
		t.Errorf("roundSim = %v", got)
	}
	if roundSim(0) != 0 {
		t.Error("roundSim(0)")
	}
}
