package pipeline

import (
	"strings"
	"testing"

	"repro/internal/soc"
)

// Edge-case coverage for SearchSchedule on the showcase's three stages:
// degenerate frame counts, single-device SoCs (no overlap possible), and the
// deterministic tie-breaking chain (searchCand.betterThan / searchKey).

func cpuOnly(name string, d soc.Seconds) TargetOption {
	return TargetOption{Name: name, Devices: []soc.DeviceKind{soc.KindCPU}, Duration: d}
}

func TestAutoScheduleRejectsNonPositiveFrames(t *testing.T) {
	one := []TargetOption{cpuOnly("cpu", 1)}
	for _, frames := range []int{0, -1} {
		if _, err := SearchSchedule(showcaseSpecs(one, one, one), frames); err == nil {
			t.Errorf("frames=%d: no error", frames)
		}
	}
}

// TestAutoScheduleSingleDeviceSoC: when every target of every stage lives on
// the one device, no overlap is possible — the best pipelined makespan must
// equal the sequential time of the per-stage-fastest assignment.
func TestAutoScheduleSingleDeviceSoC(t *testing.T) {
	stages := showcaseSpecs(
		[]TargetOption{cpuOnly("slow", 4), cpuOnly("fast", 2)},
		[]TargetOption{cpuOnly("only", 3)},
		[]TargetOption{cpuOnly("fast", 1), cpuOnly("slow", 5)})

	const frames = 4
	res, err := SearchSchedule(stages, frames)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != 2*1*2 {
		t.Errorf("evaluated %d assignments, want 4", res.Evaluated)
	}
	if got := res.Choice[0]; got != "fast" {
		t.Errorf("detect choice %q, want the faster single-device target", got)
	}
	if got := res.Choice[2]; got != "fast" {
		t.Errorf("emotion choice %q, want the faster single-device target", got)
	}
	want := soc.Seconds(frames * (2 + 3 + 1))
	if res.Pipelined != want {
		t.Errorf("pipelined makespan %v, want %v (single device ⇒ no overlap)", res.Pipelined, want)
	}
	if res.Sequential != res.Pipelined {
		t.Errorf("sequential %v != pipelined %v on a single-device SoC", res.Sequential, res.Pipelined)
	}
	cmp, err := Compare(res.Plans, frames)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Speedup != 1 {
		t.Errorf("speedup %g, want exactly 1", cmp.Speedup)
	}
}

// TestAutoScheduleTieBrokenByName: two targets indistinguishable by makespan
// and total work must resolve deterministically (lexicographically smaller
// choice key wins), regardless of option order.
func TestAutoScheduleTieBrokenByName(t *testing.T) {
	for _, order := range [][]string{{"zeta", "alpha"}, {"alpha", "zeta"}} {
		var detect []TargetOption
		for _, n := range order {
			detect = append(detect, cpuOnly(n, 2))
		}
		stages := showcaseSpecs(detect, []TargetOption{cpuOnly("s", 1)}, []TargetOption{cpuOnly("e", 1)})
		for mode, search := range map[string]func([]StageSpec, int) (*SearchResult, error){
			"exhaustive": SearchSchedule, "beam": searchBeam,
		} {
			res, err := search(stages, 3)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Choice[0]; got != "alpha" {
				t.Errorf("%s, order %v: chose %q, want tie broken to \"alpha\"", mode, order, got)
			}
		}
	}
}

// TestBetterThan covers the comparison chain directly: pipelined first,
// then sequential (less total work), then the choice key.
func TestBetterThan(t *testing.T) {
	mk := func(pipelined, sequential soc.Seconds, name string) *searchCand {
		return &searchCand{pipelined: pipelined, sequential: sequential,
			key: searchKey([]string{name, "s", "e"})}
	}
	cases := []struct {
		name string
		a, b *searchCand
		want bool
	}{
		{"smaller makespan wins", mk(1, 9, "x"), mk(2, 1, "a"), true},
		{"larger makespan loses", mk(2, 1, "a"), mk(1, 9, "x"), false},
		{"makespan tie: less total work wins", mk(2, 3, "x"), mk(2, 4, "a"), true},
		{"makespan tie: more total work loses", mk(2, 4, "a"), mk(2, 3, "x"), false},
		{"full tie: smaller key wins", mk(2, 3, "a"), mk(2, 3, "b"), true},
		{"full tie: larger key loses", mk(2, 3, "b"), mk(2, 3, "a"), false},
		{"identical: not better", mk(2, 3, "a"), mk(2, 3, "a"), false},
	}
	for _, c := range cases {
		if got := c.a.betterThan(c.b); got != c.want {
			t.Errorf("%s: betterThan = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestChoiceKeyDeterministic pins the tie-break key's rendering — placement
// records were chosen under it — and that it distinguishes different choices.
func TestChoiceKeyDeterministic(t *testing.T) {
	key := searchKey([]string{"d", "s", "e"})
	if want := "[0=d 1=s 2=e]"; key != want {
		t.Errorf("searchKey = %q, want %q", key, want)
	}
	if key == searchKey([]string{"d2", "s", "e"}) {
		t.Error("different choices share a key")
	}
	// Fields sort as strings, so stage 10 sorts before stage 2.
	long := searchKey([]string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k"})
	if !strings.HasPrefix(long, "[0=a 10=k 1=b") {
		t.Errorf("11-stage key %q: want string-sorted fields", long)
	}
}

// TestAutoScheduleZeroDurationStage: a stage may legitimately cost ~nothing
// (e.g. no faces found); the search must handle zero durations without
// division surprises.
func TestAutoScheduleZeroDurationStage(t *testing.T) {
	stages := showcaseSpecs(
		[]TargetOption{cpuOnly("d", 0)}, []TargetOption{cpuOnly("s", 0)}, []TargetOption{cpuOnly("e", 0)})
	res, err := SearchSchedule(stages, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pipelined != 0 {
		t.Errorf("pipelined %v, want 0", res.Pipelined)
	}
	cmp, err := Compare(res.Plans, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Speedup != 0 {
		// Compare guards the 0/0 case by leaving Speedup at zero.
		t.Errorf("speedup %g, want 0 for a zero-makespan plan", cmp.Speedup)
	}
}
