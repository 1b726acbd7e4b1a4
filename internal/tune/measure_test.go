package tune

import (
	"strings"
	"testing"

	"repro/internal/models"
	"repro/internal/relay"
	"repro/internal/topi"
)

// fastMeasurer keeps measurement latency test-friendly.
func fastMeasurer(verify bool) Measurer {
	return Measurer{Warmup: 1, Reps: 1, MinSampleNS: 1, Verify: verify}
}

// liteZoo builds every zoo model at the lite size, type-checked.
func liteZoo(t *testing.T) map[string]*relay.Module {
	t.Helper()
	zoo := map[string]*relay.Module{}
	for _, name := range models.Names() {
		spec, err := models.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := spec.Build(models.SizeLite)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m.Functions(func(fname string, f *relay.Function) {
			if _, err := relay.InferTypes(f); err != nil {
				t.Fatalf("%s.%s: %v", name, fname, err)
			}
		})
		zoo[name] = m
	}
	return zoo
}

// TestBitwiseInvarianceAcrossConfigs is the tuner-side enforcement of the
// repository's standing invariant: both convolution strategies produce
// bit-identical outputs. It runs every lite zoo conv task, plus an f32
// padded, a strided uint8 and an int8 1x1 task, under each strategy through
// the verifying harness, which errors on any byte difference from the
// default config's output.
func TestBitwiseInvarianceAcrossConfigs(t *testing.T) {
	var tasks []topi.TaskKey
	from := map[topi.TaskKey]string{}
	for _, ts := range []string{
		"nn.conv2d|d=1x8x8x3|w=4x3x3x3|s=1x1|l=1x1|p=1,1,1,1|g=1|float32",
		"qnn.conv2d|d=1x8x8x4|w=6x3x3x4|s=2x2|l=1x1|p=1,1,1,1|g=1|uint8",
		"qnn.conv2d|d=1x6x6x4|w=4x1x1x4|s=1x1|l=1x1|p=0,0,0,0|g=1|int8",
	} {
		task, err := topi.ParseTaskKey(ts)
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
		from[task] = "fixed"
	}
	zoo := 0
	for name, m := range liteZoo(t) {
		for _, task := range Tasks(m) {
			if _, ok := from[task]; !ok {
				tasks = append(tasks, task)
				from[task] = name
				zoo++
			}
		}
	}
	if zoo == 0 {
		t.Fatal("the lite zoo has no conv task")
	}
	for _, task := range tasks {
		if c, def := Candidate(task).ConvStrategy, task.DefaultStrategy(); c == def || def == topi.ConvAuto {
			t.Errorf("%s: %s: candidate conv=%q, default %q", from[task], task, c, def)
		}
		m := fastMeasurer(true)
		bench, err := m.NewKernelBench(task)
		if err != nil {
			t.Fatalf("%s: %s: %v", from[task], task, err)
		}
		for _, s := range []string{topi.ConvIm2col, topi.ConvDirect} {
			if _, err := bench.Measure(topi.KernelConfig{ConvStrategy: s}); err != nil {
				t.Errorf("%s: %s under conv=%s: %v", from[task], task, s, err)
			}
		}
	}
}

// TestSearchNeedsToBeatTheSpread drives SearchTask with stand-in
// measurements: the candidate wins only below both default readings by
// more than their gap, so a candidate that measures like the default is
// never recorded.
func TestSearchNeedsToBeatTheSpread(t *testing.T) {
	task := testTask(t)
	cases := []struct {
		readings [3]int64 // default, candidate, default
		improved bool
	}{
		{[3]int64{1000, 1000, 1000}, false},
		{[3]int64{1000, 999, 1000}, true},
		{[3]int64{1000, 900, 1100}, false},
		{[3]int64{1100, 899, 1000}, true},
		{[3]int64{1000, 1200, 1000}, false},
	}
	for _, c := range cases {
		var cfgs []topi.KernelConfig
		next := 0
		res, err := SearchTask(task, func(cfg topi.KernelConfig) (int64, error) {
			cfgs = append(cfgs, cfg)
			next++
			return c.readings[next-1], nil
		})
		if err != nil {
			t.Fatal(err)
		}
		want := []topi.KernelConfig{{}, Candidate(task), {}}
		if len(cfgs) != 3 || cfgs[0] != want[0] || cfgs[1] != want[1] || cfgs[2] != want[2] {
			t.Fatalf("measured %v, want %v", cfgs, want)
		}
		if res.Improved() != c.improved {
			t.Errorf("readings %v: improved = %v, want %v", c.readings, res.Improved(), c.improved)
		}
	}
}

func TestMeasureRestoresDispatchTable(t *testing.T) {
	prev := topi.SetTuning(nil)
	defer topi.SetTuning(prev)
	m := fastMeasurer(false)
	bench, err := m.NewKernelBench(testTask(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bench.Measure(topi.KernelConfig{ConvStrategy: topi.ConvDirect}); err != nil {
		t.Fatal(err)
	}
	if topi.Tuning() != nil {
		t.Fatal("Measure leaked its temporary dispatch table")
	}
}

// TestMeasureRejectsEmptyOutput: a kernel larger than the padded input and
// a zero stride both leave the task without an output shape.
func TestMeasureRejectsEmptyOutput(t *testing.T) {
	for _, ts := range []string{
		"nn.conv2d|d=1x2x2x3|w=4x5x5x3|s=1x1|l=1x1|p=0,0,0,0|g=1|float32",
		"nn.conv2d|d=1x4x4x3|w=4x1x1x3|s=0x1|l=1x1|p=0,0,0,0|g=1|float32",
	} {
		task, err := topi.ParseTaskKey(ts)
		if err != nil {
			t.Fatal(err)
		}
		m := fastMeasurer(false)
		if _, err := m.NewKernelBench(task); err == nil || !strings.Contains(err.Error(), "empty output") {
			t.Fatalf("%s: want empty-output error, got %v", ts, err)
		}
		if def := task.DefaultStrategy(); def != topi.ConvAuto {
			t.Errorf("%s: DefaultStrategy %q, want ConvAuto", ts, def)
		}
	}
}

// TestTuneTasksEndToEnd runs the full orchestration on one tiny task and
// checks the record plumbing: any emitted record must beat the default and
// resolve through the dispatch table it builds.
func TestTuneTasksEndToEnd(t *testing.T) {
	task := testTask(t)
	recs, results, err := TuneTasks("unit", []topi.TaskKey{task}, Options{Measure: fastMeasurer(true)})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Task != task {
		t.Fatalf("results = %+v", results)
	}
	if results[0].DefaultNS[0] <= 0 || results[0].DefaultNS[1] <= 0 {
		t.Fatalf("default measurements = %v ns", results[0].DefaultNS)
	}
	for _, r := range recs {
		if r.CostNS >= r.DefaultNS {
			t.Errorf("record %+v does not beat its default", r)
		}
		if err := r.Validate(); err != nil {
			t.Errorf("emitted record invalid: %v", err)
		}
	}
	tbl, err := BuildTable(recs)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != len(recs) {
		t.Fatalf("table %d entries for %d records", tbl.Len(), len(recs))
	}
}
