package app

import (
	"reflect"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/soc"
	"repro/internal/video"
)

// TestRunLiveMatchesSequential: each stage owns its model inputs and no
// buffer is shared between stages, so three stage goroutines working on three
// different frames produce what 32 sequential ProcessFrame calls produce,
// field for field (the race detector watches the same run in make check).
func TestRunLiveMatchesSequential(t *testing.T) {
	sc, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	src, err := video.NewSource(160, 120, 2, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	frames := src.Frames(32)

	// Sequential reference (separate Showcase instance so module state does
	// not interleave).
	ref, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var want []*FrameResult
	for _, f := range frames {
		r, err := ref.ProcessFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}

	live, err := sc.RunLive(frames)
	if err != nil {
		t.Fatal(err)
	}
	if len(live.Results) != len(want) {
		t.Fatalf("live produced %d results, want %d", len(live.Results), len(want))
	}
	for i, got := range live.Results {
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("frame %d: live %+v, sequential %+v", i, *got, *want[i])
		}
	}

	// The live timeline is the static scheduler on the per-frame stage costs
	// — here the ones the sequential reference measured.
	costs := make([][]soc.Seconds, len(want))
	for i, w := range want {
		costs[i] = []soc.Seconds{w.Timing.Detect, w.Timing.AntiSpoof, w.Timing.Emotion}
	}
	tl, err := pipeline.Schedule(pipeline.PaperAssignment(0, 0, 0), costs)
	if err != nil {
		t.Fatal(err)
	}
	if live.Makespan != tl.Now() || !reflect.DeepEqual(live.Timeline.Events(), tl.Events()) {
		t.Errorf("live timeline (makespan %s) is not the scheduler's on the reference costs (makespan %s):\n%s%s",
			live.Makespan, tl.Now(), live.Timeline.Gantt(80), tl.Gantt(80))
	}
}

// TestRunLiveIsDeterministic: the goroutine stages race on the wall clock,
// the simulated timeline must not — same frames, same events, every run.
func TestRunLiveIsDeterministic(t *testing.T) {
	sc, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	src, err := video.NewSource(160, 120, 1, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	frames := src.Frames(6)
	first, err := sc.RunLive(frames)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		again, err := sc.RunLive(frames)
		if err != nil {
			t.Fatal(err)
		}
		if again.Makespan != first.Makespan || !reflect.DeepEqual(again.Timeline.Events(), first.Timeline.Events()) {
			t.Fatalf("run %d: makespan %s vs %s\n%s%s", i+2, again.Makespan, first.Makespan,
				again.Timeline.Gantt(80), first.Timeline.Gantt(80))
		}
	}
}

func TestRunLivePipelines(t *testing.T) {
	sc, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	src, err := video.NewSource(160, 120, 2, 2, 31)
	if err != nil {
		t.Fatal(err)
	}
	live, err := sc.RunLive(src.Frames(8))
	if err != nil {
		t.Fatal(err)
	}
	if live.Makespan <= 0 || live.SequentialTime <= 0 {
		t.Fatal("no simulated time recorded")
	}
	if live.Makespan > live.SequentialTime {
		t.Errorf("pipelined makespan (%s) exceeds sequential total (%s)",
			live.Makespan, live.SequentialTime)
	}
	if live.Speedup() < 1 {
		t.Errorf("speedup %.3f < 1", live.Speedup())
	}
	// Exclusive-resource invariant on the recorded timeline.
	perDev := map[soc.DeviceKind][]soc.Interval{}
	for _, e := range live.Timeline.Events() {
		perDev[e.Device] = append(perDev[e.Device], e)
	}
	for dev, evs := range perDev {
		for i := 1; i < len(evs); i++ {
			if evs[i].Start < evs[i-1].End-1e-15 {
				t.Fatalf("device %s double-booked: %+v then %+v", dev, evs[i-1], evs[i])
			}
		}
	}
}
