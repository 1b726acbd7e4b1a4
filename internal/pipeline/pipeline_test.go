package pipeline

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/soc"
)

func TestSequentialMakespan(t *testing.T) {
	res, err := Compare(PaperAssignment(10e-3, 20e-3, 5e-3), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Sequential; math.Abs(float64(got)-4*35e-3) > 1e-12 {
		t.Errorf("sequential = %s, want 140ms", got)
	}
}

func TestPipelinedBeatsSequential(t *testing.T) {
	// Paper assignment: detection (CPU) can overlap emotion (APU) of the
	// previous frame; anti-spoofing (CPU+APU) serializes with both.
	p := PaperAssignment(10e-3, 20e-3, 5e-3)
	res, err := Compare(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pipelined >= res.Sequential {
		t.Errorf("pipelined %s should beat sequential %s", res.Pipelined, res.Sequential)
	}
	if res.Speedup <= 1 {
		t.Errorf("speedup %.3f", res.Speedup)
	}
}

func TestContentionAssignmentGivesNoOverlap(t *testing.T) {
	// With detection on CPU+APU, every stage touches a shared resource, so
	// pipelining cannot overlap anything: makespan equals sequential.
	p := ContentionAssignment(8e-3, 20e-3, 5e-3)
	res, err := Compare(p, 6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(res.Pipelined)-float64(res.Sequential)) > 1e-12 {
		t.Errorf("contended pipeline %s should equal sequential %s", res.Pipelined, res.Sequential)
	}
}

func TestPaperTradeoff(t *testing.T) {
	// The paper's §5.2 decision: detection on CPU-only is individually
	// slower than CPU+APU, yet the pipeline wins overall. Model that:
	// CPU-only detection is 1.5x slower but overlaps emotion.
	spoof, emo := soc.Seconds(20e-3), soc.Seconds(8e-3)
	detFast, detSlow := soc.Seconds(8e-3), soc.Seconds(12e-3)
	frames := 16
	contended, err := Compare(ContentionAssignment(detFast, spoof, emo), frames)
	if err != nil {
		t.Fatal(err)
	}
	paper, err := Compare(PaperAssignment(detSlow, spoof, emo), frames)
	if err != nil {
		t.Fatal(err)
	}
	if paper.Pipelined >= contended.Pipelined {
		t.Errorf("paper assignment (%s) should beat the contended one (%s) despite slower detection",
			paper.Pipelined, contended.Pipelined)
	}
}

func TestExclusiveResourceInvariant(t *testing.T) {
	// No two intervals on the same device may overlap — the §5.2 invariant.
	res, err := Compare(PaperAssignment(7e-3, 13e-3, 9e-3), 10)
	if err != nil {
		t.Fatal(err)
	}
	tl := res.Timeline
	perDev := map[soc.DeviceKind][]soc.Interval{}
	for _, e := range tl.Events() {
		perDev[e.Device] = append(perDev[e.Device], e)
	}
	for dev, evs := range perDev {
		for i := 1; i < len(evs); i++ {
			if evs[i].Start < evs[i-1].End-1e-15 {
				t.Fatalf("device %s double-booked: %+v overlaps %+v", dev, evs[i-1], evs[i])
			}
		}
	}
}

func TestFrameDependenciesRespected(t *testing.T) {
	// Within a frame: detect ends before spoof starts, spoof before emotion.
	res, err := Compare(PaperAssignment(5e-3, 6e-3, 7e-3), 3)
	if err != nil {
		t.Fatal(err)
	}
	tl := res.Timeline
	start := map[string]soc.Seconds{}
	end := map[string]soc.Seconds{}
	for _, e := range tl.Events() {
		if _, ok := start[e.Label]; !ok || e.Start < start[e.Label] {
			start[e.Label] = e.Start
		}
		if e.End > end[e.Label] {
			end[e.Label] = e.End
		}
	}
	for f := 0; f < 3; f++ {
		d := string(rune('0' + f))
		if end["d"+d] > start["s"+d]+1e-15 {
			t.Errorf("frame %d: spoof started before detection finished", f)
		}
		if end["s"+d] > start["e"+d]+1e-15 {
			t.Errorf("frame %d: emotion started before anti-spoofing finished", f)
		}
	}
}

func TestValidate(t *testing.T) {
	bad := PaperAssignment(1, 1, 1)
	bad[0].Devices = nil
	if _, err := Compare(bad, 2); err == nil {
		t.Error("empty device set accepted")
	}
	if _, err := Compare(PaperAssignment(1, -1, 1), 2); err == nil {
		t.Error("negative duration accepted")
	}
	if _, err := Schedule(PaperAssignment(1, 1, 1), [][]soc.Seconds{{1, 1}}); err == nil {
		t.Error("two costs for three stages accepted")
	}
}

// TestSchedulePerFrameCosts: the scheduler places frames in order at their
// own costs — a frame whose stage costs nothing still occupies its slot in
// the dependency chain, and a long frame delays only what shares its devices.
func TestSchedulePerFrameCosts(t *testing.T) {
	tl, err := Schedule(PaperAssignment(0, 0, 0), [][]soc.Seconds{
		{1, 2, 3}, // d0 0-1 cpu, s0 1-3 cpu+apu, e0 3-6 apu
		{4, 0, 1}, // d1 3-7 cpu (behind s0), s1 7-7, e1 7-8 apu
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tl.Now(); got != 8 {
		t.Errorf("makespan %v, want 8", got)
	}
	want := map[string][2]soc.Seconds{"d0": {0, 1}, "s0": {1, 3}, "e0": {3, 6}, "d1": {3, 7}, "s1": {7, 7}, "e1": {7, 8}}
	for _, e := range tl.Events() {
		if w := want[e.Label]; e.Start != w[0] || e.End != w[1] {
			t.Errorf("%s on %s: %v-%v, want %v-%v", e.Label, e.Device, e.Start, e.End, w[0], w[1])
		}
	}
}

// Property: pipelined makespan is never worse than sequential and never
// better than the critical-path lower bound.
func TestPipelineBoundsProperty(t *testing.T) {
	f := func(a, b, c uint16, nFrames uint8) bool {
		frames := int(nFrames%16) + 1
		det := soc.Seconds(float64(a%1000)+1) * 1e-6
		spoof := soc.Seconds(float64(b%1000)+1) * 1e-6
		emo := soc.Seconds(float64(c%1000)+1) * 1e-6
		p := PaperAssignment(det, spoof, emo)
		res, err := Compare(p, frames)
		if err != nil {
			return false
		}
		if res.Pipelined > res.Sequential+1e-15 {
			return false
		}
		// Lower bound: the anti-spoofing stage occupies both devices, so the
		// makespan is at least frames * spoof duration, and at least one
		// whole frame's chain.
		lower := soc.Seconds(float64(frames)) * spoof
		if chain := det + spoof + emo; chain > lower {
			lower = chain
		}
		return res.Pipelined >= lower-1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGanttRenders(t *testing.T) {
	res, err := Compare(PaperAssignment(5e-3, 6e-3, 7e-3), 3)
	if err != nil {
		t.Fatal(err)
	}
	g := res.Timeline.Gantt(60)
	if len(g) == 0 || g == "(empty timeline)\n" {
		t.Error("empty Gantt chart")
	}
}

// showcaseSpecs packages three option lists as the showcase's stages.
func showcaseSpecs(detect, spoof, emotion []TargetOption) []StageSpec {
	return []StageSpec{
		{Name: "object-detection", Label: "d", Options: detect},
		{Name: "anti-spoofing", Label: "s", Options: spoof},
		{Name: "emotion", Label: "e", Options: emotion},
	}
}

func TestAutoScheduleFindsTradeoff(t *testing.T) {
	// Candidate targets mirroring §5: detection can run fast on cpu+apu or
	// slower on cpu-only; anti-spoofing needs cpu+apu; emotion apu-only.
	stages := showcaseSpecs(
		[]TargetOption{
			{Name: "cpu+apu", Devices: []soc.DeviceKind{soc.KindCPU, soc.KindAPU}, Duration: 8e-3},
			{Name: "cpu", Devices: []soc.DeviceKind{soc.KindCPU}, Duration: 12e-3},
		},
		[]TargetOption{
			{Name: "cpu+apu", Devices: []soc.DeviceKind{soc.KindCPU, soc.KindAPU}, Duration: 20e-3},
		},
		[]TargetOption{
			{Name: "apu", Devices: []soc.DeviceKind{soc.KindAPU}, Duration: 8e-3},
			{Name: "cpu", Devices: []soc.DeviceKind{soc.KindCPU}, Duration: 14e-3},
		})
	res, err := SearchSchedule(stages, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != 4 {
		t.Errorf("evaluated %d assignments, want 4", res.Evaluated)
	}
	// The search must discover the paper's trade-off: detection on
	// cpu-only (slower solo) + emotion on apu, which overlap.
	if res.Choice[0] != "cpu" || res.Choice[2] != "apu" {
		t.Errorf("choice %v, want detect=cpu emotion=apu", res.Choice)
	}
	// And it must beat the all-fastest assignment.
	contended, err := Compare(ContentionAssignment(8e-3, 20e-3, 8e-3), 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pipelined >= contended.Pipelined {
		t.Errorf("search (%s) should beat contended (%s)", res.Pipelined, contended.Pipelined)
	}
}

func TestAutoScheduleRejectsEmptyStage(t *testing.T) {
	ok := []TargetOption{{Name: "cpu", Devices: []soc.DeviceKind{soc.KindCPU}, Duration: 1e-3}}
	_, err := SearchSchedule(showcaseSpecs(nil, ok, ok), 4)
	if err == nil || !strings.Contains(err.Error(), "object-detection") {
		t.Errorf("empty stage options: err = %v, want one naming the stage", err)
	}
	if _, err := SearchSchedule(showcaseSpecs(ok, ok, ok), 0); err == nil {
		t.Error("zero frames accepted")
	}
}

// Property: the search result is never worse than any manually enumerated
// assignment (it is an exhaustive argmin), and the plans it returns
// reproduce its makespan through Compare.
func TestAutoScheduleOptimalProperty(t *testing.T) {
	f := func(d1, d2, s1, e1, e2 uint16) bool {
		ms := func(v uint16) soc.Seconds { return soc.Seconds(float64(v%2000)+1) * 1e-6 }
		stages := showcaseSpecs(
			[]TargetOption{
				{Name: "a", Devices: []soc.DeviceKind{soc.KindCPU, soc.KindAPU}, Duration: ms(d1)},
				{Name: "b", Devices: []soc.DeviceKind{soc.KindCPU}, Duration: ms(d2)},
			},
			[]TargetOption{
				{Name: "a", Devices: []soc.DeviceKind{soc.KindCPU, soc.KindAPU}, Duration: ms(s1)},
			},
			[]TargetOption{
				{Name: "a", Devices: []soc.DeviceKind{soc.KindAPU}, Duration: ms(e1)},
				{Name: "b", Devices: []soc.DeviceKind{soc.KindCPU}, Duration: ms(e2)},
			})
		res, err := SearchSchedule(stages, 8)
		if err != nil {
			return false
		}
		if own, err := Compare(res.Plans, 8); err != nil || own.Pipelined != res.Pipelined || own.Sequential != res.Sequential {
			return false
		}
		sp := stages[1].Options[0]
		for _, d := range stages[0].Options {
			for _, e := range stages[2].Options {
				manual, err := Compare([]StagePlan{
					{Label: "d", Devices: d.Devices, Duration: d.Duration},
					{Label: "s", Devices: sp.Devices, Duration: sp.Duration},
					{Label: "e", Devices: e.Devices, Duration: e.Duration},
				}, 8)
				if err != nil {
					return false
				}
				if manual.Pipelined < res.Pipelined-1e-15 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
