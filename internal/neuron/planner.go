package neuron

import (
	"fmt"
	"sync/atomic"

	"repro/internal/soc"
	"repro/internal/tensor"
)

// The Execution Planner: NeuroPilot's compiler stage that assigns each
// operation to a backend device (paper §2.1). The planner greedily places
// every operation on the enabled device with the lowest estimated cost,
// charging DMA when a value crosses the CPU↔APU boundary.

// UnsupportedError reports a model that cannot compile for the enabled
// device set — the situation behind the missing NeuroPilot-only bars in the
// paper's Figures 4 and 6.
type UnsupportedError struct {
	Model   string
	Op      OpCode
	Devices []soc.DeviceKind
}

func (e *UnsupportedError) Error() string {
	return fmt.Sprintf("neuron: model %q contains %s, unsupported on enabled devices %v",
		e.Model, e.Op, e.Devices)
}

// CompiledModel is the output of the Neuron compiler: the model, the SoC it
// was compiled for, and the per-operation device plan.
type CompiledModel struct {
	Model   *Model
	SoC     *soc.SoC
	Devices []soc.DeviceKind
	// Plan[i] is the device executing Model.Operations[i].
	Plan []soc.DeviceKind
	// producerDev[operand] is the device whose memory holds the operand
	// after it is produced (model inputs and constants live in host memory).
	producerDev []soc.DeviceKind
	// execState caches the per-Execute working set (runtime.go) so
	// steady-state inference allocates only the escaping output tensors.
	// A single atomically-claimed slot, not a sync.Pool: the serving layer
	// gives each worker its own module instance, so Execute is effectively
	// single-threaded per CompiledModel, and a pool's GC eviction would
	// re-pay the full working-set allocation at unpredictable points
	// (breaking the allocation pins). Concurrent callers that lose the
	// claim build a fresh state and race benignly to put one back.
	execState atomic.Pointer[execState]
}

// efficiency returns the NeuroPilot engine efficiency on a device.
func efficiency(dev soc.DeviceKind) float64 {
	switch dev {
	case soc.KindAPU:
		return soc.EffNeuroPilotAPU
	case soc.KindGPU:
		return soc.EffNeuroPilotGPU
	default:
		return soc.EffNeuroPilotCPU
	}
}

// operandBytes returns the in-memory size of an operand.
func operandBytes(m *Model, idx int) int64 {
	t := m.Operands[idx].Type
	return int64(t.Shape.Elems()) * int64(t.DType.Size())
}

// workOf summarizes one operation for the cost model: traffic and the
// integer-path flag from its operands, MACs from the cost model's one rule
// (soc.MACs), asked under the opcode's reference kernel name.
func workOf(m *Model, op Operation) soc.Work {
	w := soc.Work{OpName: op.Code.String()}
	w.Bytes = operandBytes(m, op.Outputs[0])
	var shapes [2]tensor.Shape // data, weight
	for i, in := range op.Inputs {
		t := m.Operands[in].Type
		w.Bytes += operandBytes(m, in)
		if t.DType.IsQuantized() {
			w.Quantized = true
		}
		if i < len(shapes) {
			shapes[i] = t.Shape
		}
	}
	outElems := int64(m.Operands[op.Outputs[0]].Type.Shape.Elems())
	w.MACs = soc.MACs(op.Code.row().kernel, op.Attrs, outElems, shapes[0], shapes[1])
	return w
}

// CompileOptions tunes the Neuron compiler.
type CompileOptions struct {
	// DisableOperationFusion keeps the converter's unfused op chains
	// (ablation hook; fusion is on by default, matching NNAPI semantics).
	DisableOperationFusion bool
}

// Compile checks the model and runs the Execution Planner for the enabled
// devices. It fails with *UnsupportedError when some operation has no home.
func Compile(m *Model, sc *soc.SoC, devices []soc.DeviceKind) (*CompiledModel, error) {
	return CompileWith(m, sc, devices, CompileOptions{})
}

// CompileWith is Compile with explicit options.
func CompileWith(m *Model, sc *soc.SoC, devices []soc.DeviceKind, opts CompileOptions) (*CompiledModel, error) {
	if !opts.DisableOperationFusion {
		FuseOperations(m)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(devices) == 0 {
		return nil, fmt.Errorf("neuron: no devices enabled for model %q", m.Name)
	}
	cm := &CompiledModel{
		Model:       m,
		SoC:         sc,
		Devices:     devices,
		Plan:        make([]soc.DeviceKind, len(m.Operations)),
		producerDev: make([]soc.DeviceKind, len(m.Operands)),
	}
	// Inputs and constants start in host (CPU) memory.
	for i := range cm.producerDev {
		cm.producerDev[i] = soc.KindCPU
	}
	for oi, op := range m.Operations {
		best := soc.DeviceKind(-1)
		var bestCost soc.Seconds
		for _, dev := range devices {
			cost, ok := PlacementCost(m, op, dev, sc, cm.producerDev)
			if !ok {
				continue
			}
			if best < 0 || cost < bestCost {
				best, bestCost = dev, cost
			}
		}
		if best < 0 {
			return nil, &UnsupportedError{Model: m.Name, Op: op.Code, Devices: devices}
		}
		cm.Plan[oi] = best
		for _, out := range op.Outputs {
			cm.producerDev[out] = best
		}
	}
	// The model passed Check above; only the placement is new.
	if err := firstFinding(cm.CheckPlacement()); err != nil {
		return nil, fmt.Errorf("neuron: compiler produced an invalid plan: %w", err)
	}
	return cm, nil
}

// NewCompiledModel rehydrates a compiled model from a serialized artifact:
// the plan was computed at export time, so only checking happens here — the
// same checking Compile's own output gets, because these bytes may not be
// ours.
func NewCompiledModel(m *Model, sc *soc.SoC, devices []soc.DeviceKind, plan []soc.DeviceKind) (*CompiledModel, error) {
	cm := &CompiledModel{Model: m, SoC: sc, Devices: devices, Plan: plan}
	if err := cm.CheckPlan(); err != nil {
		return nil, err
	}
	return cm, nil
}

// PlacementCost is the Execution Planner's cost model for placing one
// operation on one device, exposed so placement searches (internal/tune,
// the pipeline scheduler) can score assignments with exactly the greedy
// planner's arithmetic: roofline op time at the device's NeuroPilot
// efficiency, plus DMA for every non-constant input whose producer sits on
// the other side of the APU link. producer[i] is the device currently
// holding operand i (the planner threads its producerDev through here).
// ok=false means the operation cannot run on dev at all (unsupported
// opcode, or quantized work on the GPU delegate).
func PlacementCost(m *Model, op Operation, dev soc.DeviceKind, sc *soc.SoC, producer []soc.DeviceKind) (cost soc.Seconds, ok bool) {
	if !SupportedOn(op.Code, dev) {
		return 0, false
	}
	w := fusedWork(m, op)
	if dev == soc.KindGPU && w.Quantized {
		return 0, false // no integer pipeline on the GPU delegate
	}
	cost = sc.Device(dev).OpTime(w, efficiency(dev))
	// Charge moving any input that currently lives on the other side of the
	// APU link; weights are preloaded at compile time.
	for _, in := range op.Inputs {
		if m.Operands[in].IsConst() {
			continue
		}
		if crossesLink(producer[in], dev) {
			cost += sc.APULink.TransferTime(operandBytes(m, in))
		}
	}
	return cost, true
}

// crossesLink reports whether moving a value from dev a to dev b traverses
// the CPU↔APU DMA link.
func crossesLink(a, b soc.DeviceKind) bool {
	if a == b {
		return false
	}
	return a == soc.KindAPU || b == soc.KindAPU
}

// PlanCounts returns how many operations landed on each device.
func (cm *CompiledModel) PlanCounts() map[soc.DeviceKind]int {
	h := map[soc.DeviceKind]int{}
	for _, d := range cm.Plan {
		h[d]++
	}
	return h
}

// Estimate charges the whole compiled model to a profile: per-op roofline
// time plus boundary DMA. It is the only cost walk over a plan — both
// executors call it beside Execute (which computes numerics and charges
// nothing), and the full-scale Figure 6 sweep calls it alone.
func (cm *CompiledModel) Estimate(prof *soc.Profile) soc.Seconds {
	if prof == nil {
		prof = soc.NewProfile()
	}
	producer := make([]soc.DeviceKind, len(cm.Model.Operands))
	for i := range producer {
		producer[i] = soc.KindCPU
	}
	for oi, op := range cm.Model.Operations {
		dev := cm.Plan[oi]
		for _, in := range op.Inputs {
			if cm.Model.Operands[in].IsConst() {
				continue
			}
			if crossesLink(producer[in], dev) {
				prof.AddDMANamed(cm.SoC.APULink.TransferTime(operandBytes(cm.Model, in)), cm.Model.Name)
			}
		}
		d := cm.SoC.Device(dev)
		prof.AddOpNamed(dev, d.OpTime(fusedWork(cm.Model, op), efficiency(dev)),
			cm.Model.Name+":"+opDisplayName(cm.Model, op))
		for _, out := range op.Outputs {
			producer[out] = dev
		}
	}
	// Results must return to host memory.
	for _, out := range cm.Model.Outputs {
		if crossesLink(producer[out], soc.KindCPU) {
			prof.AddDMANamed(cm.SoC.APULink.TransferTime(operandBytes(cm.Model, out)), cm.Model.Name)
		}
	}
	return prof.Total()
}

// opDisplayName names one (possibly fused) operation for profile events and
// the plan report: the anchor opcode plus its absorbed epilogue stages.
func opDisplayName(m *Model, op Operation) string {
	name := op.Code.String()
	if act := op.Attrs.Str(FusedActivationAttr, ""); act != "" {
		name += "+" + act
	}
	if op.Attrs.Bool(FusedRequantAttr, false) {
		name += "+requant"
	}
	return name
}

// PlanReport renders the compiled plan as a table: one row per operation
// with its device and estimated time — the Execution Planner's debug view.
func (cm *CompiledModel) PlanReport() string {
	var b []byte
	appendf := func(format string, args ...interface{}) {
		b = append(b, fmt.Sprintf(format, args...)...)
	}
	appendf("%-4s %-24s %-6s %12s %10s\n", "#", "operation", "device", "MACs", "est")
	for i, op := range cm.Model.Operations {
		w := fusedWork(cm.Model, op)
		dev := cm.Plan[i]
		t := cm.SoC.Device(dev).OpTime(w, efficiency(dev))
		appendf("%-4d %-24s %-6s %12d %10s\n", i, opDisplayName(cm.Model, op), dev, w.MACs, t)
	}
	return string(b)
}
