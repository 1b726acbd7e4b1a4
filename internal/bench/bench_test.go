package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/models"
	"repro/internal/pipeline"
	"repro/internal/soc"
)

// TestFigure4Shape verifies the qualitative claims of the paper's Figure 4:
// TVM-only is slowest, BYOC with NeuroPilot backends wins, NeuroPilot-only
// has missing statistics for models with uncovered ops, anti-spoofing and
// object detection prefer CPU+APU while emotion prefers APU.
func TestFigure4Shape(t *testing.T) {
	rows, err := RunFigure4(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("Figure 4 has 3 models, got %d", len(rows))
	}
	byName := map[string]ModelRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}

	for name, r := range byName {
		tvm := r.Cells[TVMOnly]
		if !tvm.OK {
			t.Fatalf("%s: TVM-only must always have statistics", name)
		}
		// TVM-only slower than every available BYOC permutation.
		for _, p := range []Permutation{BYOCCPU, BYOCAPU, BYOCCPUAPU} {
			c := r.Cells[p]
			if !c.OK {
				t.Fatalf("%s: %s must have statistics (BYOC always runs)", name, p)
			}
			if c.Time >= tvm.Time {
				t.Errorf("%s: %s (%s) should beat TVM-only (%s)", name, p, c.Time, tvm.Time)
			}
		}
	}

	// Missing NP-only statistics: anti-spoofing everywhere (mean head).
	spoof := byName["anti-spoofing"]
	for _, p := range []Permutation{NPOnlyCPU, NPOnlyAPU, NPOnlyCPUAPU} {
		if spoof.Cells[p].OK {
			t.Errorf("anti-spoofing should have no statistics under %s", p)
		}
	}
	// SSD: NP-only APU missing (LOGISTIC), CPU and CPU+APU present.
	ssd := byName["mobilenet ssd (quant)"]
	if ssd.Cells[NPOnlyAPU].OK {
		t.Error("SSD should have no statistics under NP-only APU")
	}
	if !ssd.Cells[NPOnlyCPU].OK || !ssd.Cells[NPOnlyCPUAPU].OK {
		t.Error("SSD should run NP-only on CPU and CPU+APU")
	}
	// Emotion runs everywhere.
	emotion := byName["emotion"]
	for _, p := range AllPermutations {
		if !emotion.Cells[p].OK {
			t.Errorf("emotion should have statistics under %s", p)
		}
	}

	// §5.1 preferences: anti-spoofing and SSD best on a CPU+APU mix,
	// emotion best on an APU-only target.
	if best, _ := spoof.Best(); best != BYOCCPUAPU {
		t.Errorf("anti-spoofing best = %s, want BYOC (CPU+APU)", best)
	}
	// The SSD's best target must use the APU; CPU+APU and APU-only are
	// within noise of each other here because the only host-fallback op
	// (the LOGISTIC sandwich) is tiny — see EXPERIMENTS.md.
	if best, _ := ssd.Best(); best != BYOCCPUAPU && best != NPOnlyCPUAPU && best != BYOCAPU {
		t.Errorf("SSD best = %s, want an APU-backed target", best)
	}
	if ssd.Cells[BYOCCPUAPU].Time >= ssd.Cells[TVMOnly].Time {
		t.Error("SSD: BYOC CPU+APU must beat TVM-only")
	}
	if best, _ := emotion.Best(); best != BYOCAPU && best != NPOnlyAPU {
		t.Errorf("emotion best = %s, want an APU-only target", best)
	}
}

func TestFigure4Render(t *testing.T) {
	rows, err := RunFigure4(nil)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderFigure("Figure 4", rows)
	if !strings.Contains(out, "anti-spoofing") || !strings.Contains(out, "TVM-only") {
		t.Errorf("render missing content:\n%s", out)
	}
	if !strings.Contains(out, "-") {
		t.Error("render should show no-statistics cells")
	}
}

// TestFigure6Shape: the same pattern on the classifier sweep, plus the
// quantized models must be faster than their float twins on the APU.
func TestFigure6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale sweep")
	}
	rows, err := RunFigure6(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("Figure 6 sweeps 10 models, got %d", len(rows))
	}
	byName := map[string]ModelRow{}
	for _, r := range rows {
		byName[r.Name] = r
		tvm := r.Cells[TVMOnly]
		byoc := r.Cells[BYOCCPUAPU]
		if !tvm.OK || !byoc.OK {
			t.Fatalf("%s: TVM-only and BYOC must have statistics", r.Name)
		}
		if byoc.Time >= tvm.Time {
			t.Errorf("%s: BYOC (%s) should beat TVM-only (%s)", r.Name, byoc.Time, tvm.Time)
		}
	}
	// nasnet has a mean head: no NP-only statistics.
	for _, p := range []Permutation{NPOnlyCPU, NPOnlyAPU, NPOnlyCPUAPU} {
		if byName["nasnet"].Cells[p].OK {
			t.Errorf("nasnet should have no statistics under %s", p)
		}
	}
	// densenet is fully covered: NP-only statistics present.
	if !byName["densenet"].Cells[NPOnlyCPUAPU].OK {
		t.Error("densenet should run NeuroPilot-only")
	}
	// Quantized mobilenet v1 beats float mobilenet v1 on the APU path.
	fq := byName["mobilenet v1 (quant)"].Cells[BYOCCPUAPU]
	ff := byName["mobilenet v1"].Cells[BYOCCPUAPU]
	if fq.Time >= ff.Time {
		t.Errorf("quantized mobilenet (%s) should beat float (%s) on CPU+APU", fq.Time, ff.Time)
	}
}

func TestFigure5PipelineWins(t *testing.T) {
	res, err := RunFigure5(nil, 12)
	if err != nil {
		t.Fatal(err)
	}
	// Pipelined beats its own sequential baseline.
	if res.Paper.Pipelined >= res.Paper.Sequential {
		t.Errorf("pipelined %s should beat sequential %s",
			res.Paper.Pipelined, res.Paper.Sequential)
	}
	// And beats the contended assignment despite slower CPU-only detection.
	if res.Paper.Pipelined >= res.Contention.Pipelined {
		t.Errorf("paper assignment (%s) should beat contended (%s)",
			res.Paper.Pipelined, res.Contention.Pipelined)
	}
	if res.Gantt == "" {
		t.Error("no Gantt chart")
	}
}

func TestComputationSchedule(t *testing.T) {
	rows, err := RunFigure4(nil)
	if err != nil {
		t.Fatal(err)
	}
	sched := RenderComputationSchedule(rows)
	if got := strings.Count(sched, " -> "); got != 3 {
		t.Fatalf("schedule covers %d models:\n%s", got, sched)
	}
	if strings.Contains(sched, "permutation(") {
		t.Errorf("a model has no runnable permutation:\n%s", sched)
	}
	// One line per model in rows order, so the block is the same on every run.
	at := 0
	for _, r := range rows {
		i := strings.Index(sched[at:], "  "+r.Name+" ")
		if i < 0 {
			t.Fatalf("%s missing or out of rows order:\n%s", r.Name, sched)
		}
		at += i
	}
	for i := 0; i < 20; i++ {
		if again := RenderComputationSchedule(rows); again != sched {
			t.Fatalf("two renders differ:\n%s\n%s", sched, again)
		}
	}
}

func TestTables(t *testing.T) {
	t1 := Table1String()
	for _, m := range []string{"densenet", "inception resnet v2", "inception v3",
		"inception v4", "mobilenet v1", "mobilenet v2", "nasnet"} {
		if !strings.Contains(t1, m) {
			t.Errorf("Table 1 missing %s", m)
		}
	}
	if !strings.Contains(t1, "float32") {
		t.Error("Table 1 missing dtypes")
	}
	t2 := Table2String(nil)
	for _, s := range []string{"Android 11", "Dimensity 800", "Cortex-A76", "Mali-G57", "APU 3.0"} {
		if !strings.Contains(t2, s) {
			t.Errorf("Table 2 missing %q", s)
		}
	}
}

func TestMeasureModuleErrors(t *testing.T) {
	m, err := models.BuildEmotion(models.SizeLite)
	if err != nil {
		t.Fatal(err)
	}
	sc := soc.NewDimensity800()
	for _, p := range AllPermutations {
		cell, err := MeasureModule(m, p, sc)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if !cell.OK {
			t.Errorf("%s: emotion must run under every permutation", p)
		}
	}
}

// The automatic scheduler (paper §7 future work) must do at least as well
// as the hand-chosen Figure 5 assignment.
func TestAutoPipelineAtLeastPaperPlan(t *testing.T) {
	fig5, err := RunFigure5(nil, 12)
	if err != nil {
		t.Fatal(err)
	}
	stages, err := ShowcaseStages(nil)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := pipeline.SearchSchedule(stages, 12)
	if err != nil {
		t.Fatal(err)
	}
	if auto.Pipelined > fig5.Paper.Pipelined+1e-12 {
		t.Errorf("auto schedule (%s) worse than the manual Figure 5 plan (%s)",
			auto.Pipelined, fig5.Paper.Pipelined)
	}
	if auto.Evaluated < 7*2 {
		t.Errorf("search space suspiciously small: %d assignments", auto.Evaluated)
	}
}

// §5.1: operation-level scheduling should never lose to model-level on
// models the planner can spread across CPU+APU, and the comparison must
// carry the transfer-cost caveat (op-level pays DMA, visible in profiles).
func TestOpLevelVsModelLevel(t *testing.T) {
	m, err := models.BuildEmotion(models.SizeFull)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := RunOpLevelComparison("emotion", m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.ModelLevel.OK || !cmp.OpLevel.OK {
		t.Fatal("emotion must run under both scheduling granularities")
	}
	// The planner may keep everything on one device (then times tie) but
	// must never be slower than the best single device by more than the
	// dispatch noise.
	if cmp.OpLevel.Time > cmp.ModelLevel.Time*1.05 {
		t.Errorf("op-level (%s) much slower than model-level (%s)",
			cmp.OpLevel.Time, cmp.ModelLevel.Time)
	}
	// densenet is heavy enough that the planner splits work and the op-level
	// plan at least matches the best single device.
	dm, err := models.BuildDenseNet(models.SizeFull)
	if err != nil {
		t.Fatal(err)
	}
	dcmp, err := RunOpLevelComparison("densenet", dm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dcmp.OpLevel.Time > dcmp.ModelLevel.Time*1.05 {
		t.Errorf("densenet: op-level (%s) much slower than model-level (%s)",
			dcmp.OpLevel.Time, dcmp.ModelLevel.Time)
	}
}

// GPU extension: all seven Table 1 models compile and run with the GPU
// enabled. Note the planner is *greedy*: widening the device set can regress
// some models (an op hops to the GPU to dodge one CPU→APU DMA, forcing later
// GPU→APU transfers) — a real scheduling insight this extension surfaces;
// the test pins both directions.
func TestGPUExtension(t *testing.T) {
	rows, err := RunGPUExtension(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("GPU extension covers %d models", len(rows))
	}
	regressed := 0
	for _, r := range rows {
		if !r.CPUAPU.OK || !r.CPUGPUAPU.OK {
			t.Fatalf("%s: missing statistics", r.Name)
		}
		ratio := float64(r.CPUGPUAPU.Time) / float64(r.CPUAPU.Time)
		t.Logf("%-24s cpu+apu %s, cpu+gpu+apu %s (%.2fx)", r.Name, r.CPUAPU.Time, r.CPUGPUAPU.Time, ratio)
		if ratio > 1.01 {
			regressed++
		}
		// Even when the greedy plan regresses, it must stay within 2x (the
		// GPU is never catastrophically chosen).
		if ratio > 2 {
			t.Errorf("%s: GPU-enabled plan degenerate (%.2fx)", r.Name, ratio)
		}
	}
	if regressed == len(rows) {
		t.Error("GPU enabling regressed every model — planner likely broken")
	}
}

func TestSupportMatrix(t *testing.T) {
	m := SupportMatrixString()
	for _, frag := range []string{"nn.conv2d", "vision.yolo_output", "tvm", "np-apu"} {
		if !strings.Contains(m, frag) {
			t.Errorf("support matrix missing %q", frag)
		}
	}
	// yolo decode: TVM yes, NeuroPilot no.
	for _, line := range strings.Split(m, "\n") {
		if strings.HasPrefix(line, "vision.yolo_output") {
			if !strings.Contains(line, "yes") || strings.Count(line, "-") != 3 {
				t.Errorf("yolo row wrong: %q", line)
			}
		}
	}
}

// TestSupportMatrixGolden pins the whole matrix — relay op name → handler
// row → opcode row → device set, for all 43 relay ops — against the rendering
// committed before the op tables became rows (testdata/support_matrix.golden).
// A row edit that moves a cell on purpose regenerates the file and says so.
func TestSupportMatrixGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "support_matrix.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := SupportMatrixString(); got != string(want) {
		t.Errorf("support matrix moved:\n--- got\n%s--- want\n%s", got, want)
	}
}

// The auto-quantization extension must produce a faster int8 model with the
// same top-1 prediction on the probe.
func TestAutoQuantExtension(t *testing.T) {
	res, err := RunAutoQuantExtension(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Float.OK || !res.Quantized.OK {
		t.Fatal("missing statistics")
	}
	if res.Quantized.Time >= res.Float.Time {
		t.Errorf("auto-quantized (%s) should beat float (%s)", res.Quantized.Time, res.Float.Time)
	}
	if !res.SamePick {
		t.Error("auto-quantization changed the top-1 prediction on the probe")
	}
	if res.MaxAbsDiff > 0.15 {
		t.Errorf("quantization error too large: %g", res.MaxAbsDiff)
	}
}
