// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation — the seven target permutations over the
// showcase models (Figure 4) and the extended classifier sweep (Figure 6),
// the model inventory (Table 1), the platform spec (Table 2), and the
// pipeline-scheduling prototype comparison (Figure 5).
package bench

import (
	"fmt"
	"strings"

	"repro/internal/models"
	"repro/internal/neuron"
	"repro/internal/nir"
	"repro/internal/passes"
	"repro/internal/pipeline"
	"repro/internal/relay"
	"repro/internal/runtime"
	"repro/internal/soc"
	"repro/internal/tensor"
	"repro/internal/topi"
)

// Permutation enumerates the paper's seven target configurations (§5, §6).
type Permutation int

const (
	TVMOnly Permutation = iota
	BYOCCPU
	BYOCAPU
	BYOCCPUAPU
	NPOnlyCPU
	NPOnlyAPU
	NPOnlyCPUAPU
	numPermutations
)

// AllPermutations in the paper's listing order.
var AllPermutations = []Permutation{
	TVMOnly, BYOCCPU, BYOCAPU, BYOCCPUAPU, NPOnlyCPU, NPOnlyAPU, NPOnlyCPUAPU,
}

func (p Permutation) String() string {
	switch p {
	case TVMOnly:
		return "TVM-only"
	case BYOCCPU:
		return "BYOC (CPU)"
	case BYOCAPU:
		return "BYOC (APU)"
	case BYOCCPUAPU:
		return "BYOC (CPU+APU)"
	case NPOnlyCPU:
		return "NP-only (CPU)"
	case NPOnlyAPU:
		return "NP-only (APU)"
	case NPOnlyCPUAPU:
		return "NP-only (CPU+APU)"
	}
	return fmt.Sprintf("permutation(%d)", int(p))
}

// devicesOf returns the NeuroPilot device set of a permutation.
func devicesOf(p Permutation) []soc.DeviceKind {
	switch p {
	case BYOCCPU, NPOnlyCPU:
		return []soc.DeviceKind{soc.KindCPU}
	case BYOCAPU, NPOnlyAPU:
		return []soc.DeviceKind{soc.KindAPU}
	case BYOCCPUAPU, NPOnlyCPUAPU:
		return []soc.DeviceKind{soc.KindCPU, soc.KindAPU}
	}
	return nil
}

// IsNeuroPilotOnly reports whether the permutation bypasses TVM.
func (p Permutation) IsNeuroPilotOnly() bool {
	return p == NPOnlyCPU || p == NPOnlyAPU || p == NPOnlyCPUAPU
}

// MeasureModule estimates one inference of the module under a permutation.
// A nil error with OK=false never happens: unsupported configurations return
// a no-statistics cell (the empty bars of Figures 4/6) without error, any
// other failure is reported.
func MeasureModule(m *relay.Module, p Permutation, sc *soc.SoC) (Cell, error) {
	if sc == nil {
		sc = soc.NewDimensity800()
	}
	if p.IsNeuroPilotOnly() {
		cm, err := runtime.BuildNeuroPilotOnly(m, sc, devicesOf(p))
		if err != nil {
			if runtime.IsNoStatistics(err) {
				return Cell{}, nil // no statistics to show
			}
			return Cell{}, err
		}
		prof := soc.NewProfile()
		return Cell{OK: true, Time: cm.Estimate(prof), Profile: prof}, nil
	}
	opts := runtime.BuildOptions{OptLevel: 3, SoC: sc}
	if p != TVMOnly {
		opts.UseNIR = true
		opts.NIRDevices = devicesOf(p)
	}
	lib, err := runtime.Build(m, opts)
	if err != nil {
		return Cell{}, err
	}
	prof, err := lib.Estimate()
	if err != nil {
		return Cell{}, err
	}
	return Cell{OK: true, Time: prof.Total(), Profile: prof}, nil
}

// Cell is one bar of a figure: a measured time or "no statistics".
type Cell struct {
	OK      bool
	Time    soc.Seconds
	Profile *soc.Profile
}

// ModelRow is one model's measurements across all permutations.
type ModelRow struct {
	Name  string
	Cells map[Permutation]Cell
}

// Best returns the fastest available permutation.
func (r ModelRow) Best() (Permutation, Cell) {
	best := Permutation(-1)
	var bestCell Cell
	for _, p := range AllPermutations {
		c, ok := r.Cells[p]
		if !ok || !c.OK {
			continue
		}
		if best < 0 || c.Time < bestCell.Time {
			best, bestCell = p, c
		}
	}
	return best, bestCell
}

// sweep measures a set of model specs across all permutations. Models are
// built once and reused across permutations.
func sweep(specs []models.Spec, size models.Size, sc *soc.SoC) ([]ModelRow, error) {
	rows := make([]ModelRow, 0, len(specs))
	for _, spec := range specs {
		m, err := spec.Build(size)
		if err != nil {
			return nil, fmt.Errorf("bench: building %s: %w", spec.Name, err)
		}
		row := ModelRow{Name: spec.Name, Cells: map[Permutation]Cell{}}
		for _, p := range AllPermutations {
			cell, err := MeasureModule(m, p, sc)
			if err != nil {
				return nil, fmt.Errorf("bench: %s under %s: %w", spec.Name, p, err)
			}
			row.Cells[p] = cell
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RunFigure4 measures the three showcase models across the seven
// permutations at full scale.
func RunFigure4(sc *soc.SoC) ([]ModelRow, error) {
	return sweep(models.Showcase(), models.SizeFull, sc)
}

// RunFigure6 measures the extended classifier sweep.
func RunFigure6(sc *soc.SoC) ([]ModelRow, error) {
	return sweep(models.Figure6(), models.SizeFull, sc)
}

// RenderFigure renders rows as a text table (ms, "-" for no statistics).
func RenderFigure(title string, rows []ModelRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-24s", "model")
	for _, p := range AllPermutations {
		fmt.Fprintf(&b, "%18s", p)
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s", r.Name)
		for _, p := range AllPermutations {
			c := r.Cells[p]
			if !c.OK {
				fmt.Fprintf(&b, "%18s", "-")
				continue
			}
			fmt.Fprintf(&b, "%15.2fms", c.Time.Ms())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// RenderComputationSchedule implements §5.1: each model's most efficient
// permutation from the measured rows, one line per model in rows order.
func RenderComputationSchedule(rows []ModelRow) string {
	var b strings.Builder
	b.WriteString("computation schedule (per-model best target, §5.1):\n")
	for _, r := range rows {
		best, _ := r.Best()
		fmt.Fprintf(&b, "  %-24s -> %s\n", r.Name, best)
	}
	return b.String()
}

// Figure5Result bundles the pipeline experiment output.
type Figure5Result struct {
	Plan       []pipeline.StagePlan // the paper plan: detect, anti-spoof, emotion
	Contention pipeline.Result      // all models on their §5.1-best targets
	Paper      pipeline.Result      // detection demoted to CPU-only (Figure 5)
	Gantt      string
}

// RunFigure5 measures per-stage durations of the showcase models under the
// Figure 5 assignment (detection BYOC CPU-only, anti-spoofing BYOC CPU+APU,
// emotion NeuroPilot APU-only) and compares sequential, contended and
// pipelined execution over the given frame count. Stage durations assume
// one detected face per frame (the model-level schedule of the paper).
func RunFigure5(sc *soc.SoC, frames int) (*Figure5Result, error) {
	if sc == nil {
		sc = soc.NewDimensity800()
	}
	measure := func(build func(models.Size) (*relay.Module, error), p Permutation) (soc.Seconds, error) {
		m, err := build(models.SizeFull)
		if err != nil {
			return 0, err
		}
		cell, err := MeasureModule(m, p, sc)
		if err != nil {
			return 0, err
		}
		if !cell.OK {
			return 0, fmt.Errorf("bench: stage has no statistics under %s", p)
		}
		return cell.Time, nil
	}
	detCPUAPU, err := measure(models.BuildMobileNetSSDQuant, BYOCCPUAPU)
	if err != nil {
		return nil, err
	}
	detCPU, err := measure(models.BuildMobileNetSSDQuant, BYOCCPU)
	if err != nil {
		return nil, err
	}
	spoof, err := measure(models.BuildDeePixBiS, BYOCCPUAPU)
	if err != nil {
		return nil, err
	}
	emotion, err := measure(models.BuildEmotion, NPOnlyAPU)
	if err != nil {
		return nil, err
	}

	contPlan := pipeline.ContentionAssignment(detCPUAPU, spoof, emotion)
	paperPlan := pipeline.PaperAssignment(detCPU, spoof, emotion)
	cont, err := pipeline.Compare(contPlan, frames)
	if err != nil {
		return nil, err
	}
	paper, err := pipeline.Compare(paperPlan, frames)
	if err != nil {
		return nil, err
	}
	return &Figure5Result{
		Plan:       paperPlan,
		Contention: cont,
		Paper:      paper,
		Gantt:      paper.Timeline.Gantt(100),
	}, nil
}

// Table1String renders the Table 1 model/dtype inventory.
func Table1String() string {
	var b strings.Builder
	b.WriteString("Table 1: Models used for testing and their data types\n")
	fmt.Fprintf(&b, "%-24s%-12s%-10s%s\n", "Model", "Data Type", "Source", "Width")
	for _, s := range models.Table1() {
		fmt.Fprintf(&b, "%-24s%-12s%-10s%.2f\n", s.Name, s.DataType, s.Framework, s.WidthMult)
	}
	return b.String()
}

// Table2String renders the Table 2 platform specification.
func Table2String(sc *soc.SoC) string {
	if sc == nil {
		sc = soc.NewDimensity800()
	}
	var b strings.Builder
	b.WriteString("Table 2: Specifications of experiment environment\n")
	fmt.Fprintf(&b, "%-10s%s\n", "Device", sc.Name)
	fmt.Fprintf(&b, "%-10s%s\n", "OS", sc.OS)
	fmt.Fprintf(&b, "%-10s%s\n", "Chipset", sc.Chipset)
	fmt.Fprintf(&b, "%-10s%s\n", "CPU", sc.CPU.Name)
	fmt.Fprintf(&b, "%-10s%s\n", "GPU", sc.GPU.Name)
	fmt.Fprintf(&b, "%-10s%s\n", "APU", sc.APU.Name)
	return b.String()
}

// stageOptions measures one stage model under every permutation and
// returns the feasible targets as pipeline options. The exclusive device
// set of each option is derived from the measured profile (every device the
// configuration actually launched work on).
func stageOptions(m *relay.Module, sc *soc.SoC) ([]pipeline.TargetOption, error) {
	var options []pipeline.TargetOption
	for _, p := range AllPermutations {
		cell, err := MeasureModule(m, p, sc)
		if err != nil {
			return nil, err
		}
		if !cell.OK {
			continue // no statistics: infeasible target
		}
		var devices []soc.DeviceKind
		for _, d := range []soc.DeviceKind{soc.KindCPU, soc.KindAPU, soc.KindGPU} {
			if cell.Profile.Launches[d] > 0 {
				devices = append(devices, d)
			}
		}
		if len(devices) == 0 {
			devices = []soc.DeviceKind{soc.KindCPU}
		}
		options = append(options, pipeline.TargetOption{
			Name:     p.String(),
			Devices:  devices,
			Duration: cell.Time,
		})
	}
	return options, nil
}

// ShowcaseStages is the input of the paper's announced future work (§7):
// the three showcase models at full size, each measured under every
// feasible target, as stages for pipeline.SearchSchedule. The stage names
// are the ones placement records are keyed by.
func ShowcaseStages(sc *soc.SoC) ([]pipeline.StageSpec, error) {
	stages := []pipeline.StageSpec{
		{Name: "object-detection", Label: "d"},
		{Name: "anti-spoofing", Label: "s"},
		{Name: "emotion", Label: "e"},
	}
	builds := []func(models.Size) (*relay.Module, error){
		models.BuildMobileNetSSDQuant, models.BuildDeePixBiS, models.BuildEmotion,
	}
	for i, build := range builds {
		m, err := build(models.SizeFull)
		if err != nil {
			return nil, err
		}
		if stages[i].Options, err = stageOptions(m, sc); err != nil {
			return nil, err
		}
	}
	return stages, nil
}

// OpLevelComparison quantifies §5.1's model-level vs operation-level
// scheduling discussion for one model: model-level scheduling forces the
// whole network onto its best single NeuroPilot device, while
// operation-level scheduling lets the Execution Planner assign every
// operation individually across CPU+APU (paying I/O transfer time at each
// boundary — exactly the cost the paper says makes it "more difficult").
type OpLevelComparison struct {
	Model string
	// ModelLevel is the best single-device time (NP-only CPU or APU), or
	// !OK when neither single device covers the model.
	ModelLevel     Cell
	ModelLevelPick Permutation
	// OpLevel is the per-operation CPU+APU plan (NP-only CPU+APU).
	OpLevel Cell
}

// RunOpLevelComparison measures the comparison for a module.
func RunOpLevelComparison(name string, m *relay.Module, sc *soc.SoC) (OpLevelComparison, error) {
	out := OpLevelComparison{Model: name, ModelLevelPick: -1}
	for _, p := range []Permutation{NPOnlyCPU, NPOnlyAPU} {
		cell, err := MeasureModule(m, p, sc)
		if err != nil {
			return out, err
		}
		if !cell.OK {
			continue
		}
		if !out.ModelLevel.OK || cell.Time < out.ModelLevel.Time {
			out.ModelLevel = cell
			out.ModelLevelPick = p
		}
	}
	cell, err := MeasureModule(m, NPOnlyCPUAPU, sc)
	if err != nil {
		return out, err
	}
	out.OpLevel = cell
	return out, nil
}

// GPUExtensionRow compares the paper's BYOC CPU+APU against the extension
// permutation with the Mali GPU also enabled (NeuroPilot lists the mobile
// GPU among its backends, §5, but the paper's experiments never exercise
// it).
type GPUExtensionRow struct {
	Name      string
	CPUAPU    Cell
	CPUGPUAPU Cell
}

// RunGPUExtension measures the GPU-enabled permutation on the Table 1
// float models.
func RunGPUExtension(sc *soc.SoC) ([]GPUExtensionRow, error) {
	if sc == nil {
		sc = soc.NewDimensity800()
	}
	var rows []GPUExtensionRow
	for _, spec := range models.Table1() {
		m, err := spec.Build(models.SizeFull)
		if err != nil {
			return nil, err
		}
		base, err := MeasureModule(m, BYOCCPUAPU, sc)
		if err != nil {
			return nil, err
		}
		lib, err := runtime.Build(m, runtime.BuildOptions{
			OptLevel: 3, UseNIR: true, SoC: sc,
			NIRDevices: []soc.DeviceKind{soc.KindCPU, soc.KindGPU, soc.KindAPU},
		})
		if err != nil {
			return nil, err
		}
		prof, err := lib.Estimate()
		if err != nil {
			return nil, err
		}
		rows = append(rows, GPUExtensionRow{
			Name:      spec.Name,
			CPUAPU:    base,
			CPUGPUAPU: Cell{OK: true, Time: prof.Total(), Profile: prof},
		})
	}
	return rows, nil
}

// SupportMatrixString renders the operator coverage matrix: every relay op
// against the TVM host kernels and the NeuroPilot device backends — the
// coverage story behind every missing bar in Figures 4/6.
func SupportMatrixString() string {
	var b strings.Builder
	b.WriteString("Operator support matrix (relay op × backend)\n")
	fmt.Fprintf(&b, "%-24s %-5s %-8s %-8s %-8s\n", "relay op", "tvm", "np-cpu", "np-apu", "np-gpu")
	mark := func(ok bool) string {
		if ok {
			return "yes"
		}
		return "-"
	}
	for _, name := range relay.OpNames() {
		_, tvmOK := topi.Lookup(name)
		npCode, npOK := nir.OpcodeOf(name)
		apu, gpu := false, false
		if npOK {
			apu = neuron.SupportedOn(npCode, soc.KindAPU)
			gpu = neuron.SupportedOn(npCode, soc.KindGPU)
		}
		fmt.Fprintf(&b, "%-24s %-5s %-8s %-8s %-8s\n",
			name, mark(tvmOK), mark(npOK), mark(apu), mark(gpu))
	}
	return b.String()
}

// AutoQuantResult summarizes the automatic-quantization extension on one
// model: float vs auto-quantized int8 time under the same target, plus the
// output deviation on a probe input.
type AutoQuantResult struct {
	Model      string
	Float      Cell
	Quantized  Cell
	MaxAbsDiff float64
	SamePick   bool
}

// RunAutoQuantExtension auto-quantizes the (float) Keras emotion model —
// calibrate on synthetic face crops, rewrite to QNN — and compares it with
// its float original under NeuroPilot CPU+APU.
func RunAutoQuantExtension(sc *soc.SoC) (*AutoQuantResult, error) {
	if sc == nil {
		sc = soc.NewDimensity800()
	}
	m, err := models.BuildEmotion(models.SizeFull)
	if err != nil {
		return nil, err
	}
	// Inference-mode cleanup before calibration (dropout must be gone).
	m, err = passes.Sequential(m, passes.NewContext(3),
		passes.SimplifyInference(), passes.FoldConstant())
	if err != nil {
		return nil, err
	}
	var calib []*tensor.Tensor
	for i := 0; i < 3; i++ {
		t := tensor.New(tensor.Float32, tensor.Shape{1, 48, 48, 1})
		t.FillUniform(tensor.NewRNG(uint64(900+i)), 0, 1)
		calib = append(calib, t)
	}
	prof, err := passes.Calibrate(m, calib)
	if err != nil {
		return nil, err
	}
	qm, err := passes.QuantizeModule(m, prof)
	if err != nil {
		return nil, err
	}

	fCell, err := MeasureModule(m, NPOnlyCPUAPU, sc)
	if err != nil {
		return nil, err
	}
	qCell, err := MeasureModule(qm, NPOnlyCPUAPU, sc)
	if err != nil {
		return nil, err
	}

	// Accuracy probe through the real executor (TVM path, real numerics).
	probe := tensor.New(tensor.Float32, tensor.Shape{1, 48, 48, 1})
	probe.FillUniform(tensor.NewRNG(4242), 0, 1)
	runOne := func(mod *relay.Module) (*tensor.Tensor, error) {
		lib, err := runtime.Build(mod, runtime.BuildOptions{OptLevel: 3, SoC: sc})
		if err != nil {
			return nil, err
		}
		gm := runtime.NewGraphModule(lib)
		gm.SetInput(gm.InputNames()[0], probe)
		if err := gm.Run(); err != nil {
			return nil, err
		}
		return gm.MustOutput(0), nil
	}
	fOut, err := runOne(m)
	if err != nil {
		return nil, err
	}
	qOut, err := runOne(qm)
	if err != nil {
		return nil, err
	}
	return &AutoQuantResult{
		Model:      "emotion",
		Float:      fCell,
		Quantized:  qCell,
		MaxAbsDiff: tensor.MaxAbsDiff(fOut, qOut),
		SamePick:   fOut.ArgMax() == qOut.ArgMax(),
	}, nil
}
