package pipeline

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/soc"
)

func twoDev(name string, devs []soc.DeviceKind, d soc.Seconds) TargetOption {
	return TargetOption{Name: name, Devices: devs, Duration: d}
}

// searchStages builds an N-stage spec where each stage offers a CPU-only
// and an APU-only target with pseudo-random durations.
func searchStages(n int, seed int64) []StageSpec {
	rng := rand.New(rand.NewSource(seed))
	stages := make([]StageSpec, n)
	for i := range stages {
		stages[i] = StageSpec{
			Name: fmt.Sprintf("stage%d", i),
			Options: []TargetOption{
				twoDev("cpu", []soc.DeviceKind{soc.KindCPU}, soc.Seconds(1+rng.Intn(5))),
				twoDev("apu", []soc.DeviceKind{soc.KindAPU}, soc.Seconds(1+rng.Intn(5))),
			},
		}
	}
	return stages
}

func TestSearchScheduleValidation(t *testing.T) {
	stages := searchStages(2, 1)
	if _, err := SearchSchedule(stages, 0); err == nil {
		t.Error("frames=0 accepted")
	}
	if _, err := SearchSchedule(nil, 1); err == nil {
		t.Error("no stages accepted")
	}
	empty := []StageSpec{{Name: "x"}}
	if _, err := SearchSchedule(empty, 1); err == nil {
		t.Error("stage without options accepted")
	}
}

// TestBeamMatchesExhaustiveSmall: on spaces the exhaustive search can
// enumerate, the beam search (called directly: SearchSchedule would not pick
// it here) must find an assignment with the same optimal pipelined makespan.
func TestBeamMatchesExhaustiveSmall(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		stages := searchStages(4, seed)
		ex, err := SearchSchedule(stages, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !ex.Exhaustive {
			t.Fatalf("seed %d: 16-assignment space not enumerated", seed)
		}
		beam, err := searchBeam(stages, 5)
		if err != nil {
			t.Fatal(err)
		}
		if beam.Pipelined > ex.Pipelined {
			t.Errorf("seed %d: beam makespan %v worse than optimal %v (choice %v vs %v)",
				seed, beam.Pipelined, ex.Pipelined, beam.Choice, ex.Choice)
		}
		if beam.Evaluated >= ex.Evaluated*4 {
			t.Errorf("seed %d: beam evaluated %d, exhaustive only %d", seed, beam.Evaluated, ex.Evaluated)
		}
	}
}

// TestBeamHandlesLargeSpaces: a 12-stage space (4096+ assignments at two
// options each) must fall to beam mode by default and stay cheap.
func TestBeamHandlesLargeSpaces(t *testing.T) {
	stages := searchStages(13, 7) // 2^13 = 8192 > default limit
	res, err := SearchSchedule(stages, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exhaustive {
		t.Fatal("8192-assignment space was enumerated")
	}
	if res.Evaluated > 13*8*2 {
		t.Fatalf("beam evaluated %d schedules, want <= stages*beam*options", res.Evaluated)
	}
	if len(res.Choice) != 13 || len(res.Plans) != 13 {
		t.Fatalf("result covers %d stages", len(res.Choice))
	}
	if res.Pipelined <= 0 || res.Sequential < res.Pipelined {
		t.Fatalf("times: pipelined %v sequential %v", res.Pipelined, res.Sequential)
	}
}

func TestSearchDeterministic(t *testing.T) {
	stages := searchStages(5, 11)
	for mode, search := range map[string]func([]StageSpec, int) (*SearchResult, error){
		"exhaustive": SearchSchedule, "beam": searchBeam,
	} {
		a, err := search(stages, 4)
		if err != nil {
			t.Fatal(err)
		}
		b, err := search(stages, 4)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(a.Choice) != fmt.Sprint(b.Choice) || a.Pipelined != b.Pipelined || a.Evaluated != b.Evaluated {
			t.Fatalf("%s: search not deterministic: %+v vs %+v", mode, a, b)
		}
	}
}

// TestSearchScheduleOverlap reproduces the paper's pipelining effect in the
// N-stage searcher: stages on disjoint devices overlap, so the chosen
// assignment must beat the sequential time.
func TestSearchScheduleOverlap(t *testing.T) {
	stages := []StageSpec{
		{Name: "detect", Options: []TargetOption{
			twoDev("apu", []soc.DeviceKind{soc.KindAPU}, 2),
			twoDev("cpu", []soc.DeviceKind{soc.KindCPU}, 2)}},
		{Name: "classify", Options: []TargetOption{
			twoDev("cpu", []soc.DeviceKind{soc.KindCPU}, 2),
			twoDev("apu", []soc.DeviceKind{soc.KindAPU}, 2)}},
	}
	res, err := SearchSchedule(stages, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Choice[0] == res.Choice[1] {
		t.Fatalf("search picked same-device stages %v: no overlap possible", res.Choice)
	}
	if res.Pipelined >= res.Sequential {
		t.Fatalf("pipelined %v not better than sequential %v", res.Pipelined, res.Sequential)
	}
	if got := res.Describe(stages); got == "" {
		t.Error("Describe returned empty")
	}
}
