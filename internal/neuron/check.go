package neuron

import (
	"fmt"

	"repro/internal/relay"
)

// The one checker of Neuron IR and its execution plan. Every consumer runs
// it: Model.Validate and CompiledModel.CheckPlan return its first finding,
// internal/verify adapts all of them into diagnostics, and through those
// the converter, the compiler, artifact loading and runtime.Build refuse
// the same models for the same reasons. It lives beside the opcode
// catalogue because that is the only place every caller can reach.

// Finding is one broken invariant, as plain data: the invariant class, the
// offending operand or operation, and what is wrong with it. It is an error
// so that "first finding" needs no conversion.
type Finding struct {
	Check string
	Where string
	Msg   string
}

func (f Finding) Error() string {
	return fmt.Sprintf("neuron: [%s] %s: %s", f.Check, f.Where, f.Msg)
}

// firstFinding is the error form of a findings list.
func firstFinding(fs []Finding) error {
	if len(fs) == 0 {
		return nil
	}
	return fs[0]
}

// fusedActivations are the activation names the operation-fusion pass may
// stamp on an anchor operation.
var fusedActivations = map[string]bool{"relu": true, "relu6": true}

// modelCheck accumulates the findings of one walk. A location is formatted
// only where a finding is emitted: formatting one per operand and operation
// of a clean model was a fifth of a BYOC build.
type modelCheck struct {
	m        *Model
	findings []Finding
}

func (c *modelCheck) add(check, where, format string, a ...any) {
	c.findings = append(c.findings, Finding{Check: check, Where: where, Msg: fmt.Sprintf(format, a...)})
}

func (c *modelCheck) model() string { return fmt.Sprintf("model %q", c.m.Name) }

func (c *modelCheck) operand(i int) string {
	return fmt.Sprintf("model %q operand #%d (%s)", c.m.Name, i, c.m.Operands[i].Name)
}

func (c *modelCheck) op(oi int) string {
	return fmt.Sprintf("model %q op #%d %s", c.m.Name, oi, c.m.Operations[oi].Code)
}

func (c *modelCheck) inBounds(idx int) bool { return idx >= 0 && idx < len(c.m.Operands) }

// Check audits the tensor-oriented invariants of the model and returns every
// violation: operand indices in bounds, every quantized operand carrying a
// positive scale and a zero-point (the paper's §3.3 invariant), constants
// agreeing with their declared type, per-operation arity against the
// signature table, topological operation order, constants never written,
// every model output produced, quantized convolutions and fully connected
// layers taking zero points of their operands' dtypes, and the fused
// conv+bias+requantize+activation forms remaining valid. A clean model
// returns nil.
func (m *Model) Check() []Finding {
	c := modelCheck{m: m}
	n := len(m.Operands)
	// defined[i]: operand i holds a value by the time the walk reaches an
	// operation — constants and model inputs from the start.
	defined := make([]bool, n)

	// Operand table: quantization params and constant shape agreement.
	for i, od := range m.Operands {
		if od.Type.DType.IsQuantized() {
			if od.Type.Quant == nil {
				c.add("quant-params", c.operand(i),
					"operand is %s but carries no scale/zero-point — Neuron IR is tensor-oriented, "+
						"quantization parameters must ride on every operand", od.Type.DType)
			} else if od.Type.Quant.Scale <= 0 {
				c.add("quant-params", c.operand(i),
					"operand has non-positive quantization scale %g", od.Type.Quant.Scale)
			}
		}
		if od.IsConst() && !od.Const.Shape.Equal(od.Type.Shape) {
			c.add("const-type", c.operand(i),
				"constant value shape %s disagrees with declared %s", od.Const.Shape, od.Type.Shape)
		}
		defined[i] = od.IsConst()
	}

	// Model inputs/outputs.
	for _, i := range m.Inputs {
		if !c.inBounds(i) {
			c.add("operand-range", c.model(), "input operand %d out of range (%d operands)", i, n)
		} else if m.Operands[i].IsConst() {
			c.add("input-const", c.model(), "input operand %d (%s) is a compile-time constant", i, m.Operands[i].Name)
		} else {
			defined[i] = true
		}
	}
	for _, i := range m.Outputs {
		if !c.inBounds(i) {
			c.add("operand-range", c.model(), "output operand %d out of range (%d operands)", i, n)
		}
	}

	// Operation list: arity, bounds, topological order, fusion attributes.
	for oi, op := range m.Operations {
		if !KnownOpCode(op.Code) {
			c.add("unknown-opcode", c.op(oi), "opcode %d is not in the Neuron catalogue", int(op.Code))
			continue
		}
		sig := op.Code.row()
		if len(op.Inputs) < sig.minIn || (sig.maxIn >= 0 && len(op.Inputs) > sig.maxIn) {
			if sig.maxIn == sig.minIn {
				c.add("op-arity", c.op(oi), "operation has %d inputs, signature wants %d", len(op.Inputs), sig.minIn)
			} else {
				c.add("op-arity", c.op(oi), "operation has %d inputs, signature wants %d..%d",
					len(op.Inputs), sig.minIn, sig.maxIn)
			}
		}
		if len(op.Outputs) != 1 {
			c.add("op-arity", c.op(oi), "operation has %d outputs, signature wants 1", len(op.Outputs))
		}
		for _, in := range op.Inputs {
			if !c.inBounds(in) {
				c.add("operand-range", c.op(oi), "input operand %d out of range (%d operands)", in, n)
				continue
			}
			if !defined[in] {
				c.add("topo-order", c.op(oi),
					"uses operand %d before any operation produces it (operations must be topologically ordered)", in)
			}
		}
		for _, out := range op.Outputs {
			if !c.inBounds(out) {
				c.add("operand-range", c.op(oi), "output operand %d out of range (%d operands)", out, n)
				continue
			}
			if m.Operands[out].IsConst() {
				c.add("write-const", c.op(oi), "writes constant operand %d (%s)", out, m.Operands[out].Name)
			}
			defined[out] = true
		}
		c.zeroPoints(oi, op)
		c.fusedForm(oi, op)
	}
	for _, i := range m.Outputs {
		if c.inBounds(i) && !defined[i] {
			c.add("output-produced", c.model(), "model output %d is never produced by any operation", i)
		}
	}
	return c.findings
}

// fusedForm validates the epilogues the operation-fusion pass attaches to an
// anchor: a third bias input must be a rank-1 constant holding one value per
// channel of the anchor's output, a fused activation must be a known
// activation name, and a fused requantize must carry its output scale.
func (c *modelCheck) fusedForm(oi int, op Operation) {
	switch op.Code {
	case Conv2D, DepthwiseConv2D, FullyConnected:
		if len(op.Inputs) == 3 && c.inBounds(op.Inputs[2]) {
			bias := c.m.Operands[op.Inputs[2]]
			if !bias.IsConst() {
				c.add("fused-bias", c.op(oi), "fused bias operand %d (%s) is not a constant", op.Inputs[2], bias.Name)
			} else if len(bias.Type.Shape) != 1 {
				c.add("fused-bias", c.op(oi), "fused bias operand %d has shape %s, want rank 1",
					op.Inputs[2], bias.Type.Shape)
			} else if len(op.Outputs) == 1 && c.inBounds(op.Outputs[0]) {
				out := c.m.Operands[op.Outputs[0]].Type.Shape
				if len(out) > 0 && bias.Type.Shape[0] != out[len(out)-1] {
					c.add("fused-bias", c.op(oi), "fused bias operand %d has %d elements, output has %d channels",
						op.Inputs[2], bias.Type.Shape[0], out[len(out)-1])
				}
			}
		}
	}
	if act := op.Attrs.Str(FusedActivationAttr, ""); act != "" && !fusedActivations[act] {
		c.add("fused-activation", c.op(oi), "fused activation %q is not a known activation", act)
	}
	if op.Attrs.Bool(FusedRequantAttr, false) && op.Attrs.Float("requant_output_scale", 0) <= 0 {
		c.add("fused-requantize", c.op(oi),
			"operation fuses a requantize but carries no positive requant_output_scale attribute")
	}
}

// zeroPoints applies relay.CheckQnnZeroPoints to a quantized CONV_2D,
// DEPTHWISE_CONV_2D or FULLY_CONNECTED: the kernel's int16 panels need every
// (raw − zp) within ±255.
func (c *modelCheck) zeroPoints(oi int, op Operation) {
	switch op.Code {
	case Conv2D, DepthwiseConv2D, FullyConnected:
		if len(op.Inputs) < 2 || !c.inBounds(op.Inputs[0]) || !c.inBounds(op.Inputs[1]) {
			return
		}
		data, weight := c.m.Operands[op.Inputs[0]].Type.DType, c.m.Operands[op.Inputs[1]].Type.DType
		if !data.IsQuantized() {
			return
		}
		if err := relay.CheckQnnZeroPoints("operation", data, weight, op.Attrs); err != nil {
			c.add("quant-zero-point", c.op(oi), "%v", err)
		}
	}
}

// Validate is Check as an error: the first finding, nil for a clean model.
func (m *Model) Validate() error { return firstFinding(m.Check()) }

// CheckPlacement audits the execution plan against the operation list and
// returns every violation: one device per operation, drawn from the enabled
// set, whose supported-op set contains the operation — the Execution Planner
// must never place an op on a device that cannot run it. It reads opcodes
// only, so it is safe on a model Check has refused. A length mismatch is
// reported alone: nothing else is checkable.
func (cm *CompiledModel) CheckPlacement() []Finding {
	c := modelCheck{m: cm.Model}
	if len(cm.Plan) != len(cm.Model.Operations) {
		c.add("plan-length", c.model(), "plan covers %d operations, model has %d", len(cm.Plan), len(cm.Model.Operations))
		return c.findings
	}
	for oi, dev := range cm.Plan {
		enabled := false
		for _, d := range cm.Devices {
			enabled = enabled || d == dev
		}
		if !enabled {
			c.add("plan-device", c.op(oi), "assigned to %s, which is not among the enabled devices %v", dev, cm.Devices)
		}
		if code := cm.Model.Operations[oi].Code; !SupportedOn(code, dev) {
			c.add("plan-unsupported", c.op(oi), "assigned to %s, whose supported-op set does not contain %s", dev, code)
		}
	}
	return c.findings
}

// CheckPlan is the whole audit of a compiled model as an error: the first
// finding of Model.Check, else the first of CheckPlacement, nil when clean.
func (cm *CompiledModel) CheckPlan() error {
	if err := cm.Model.Validate(); err != nil {
		return err
	}
	return firstFinding(cm.CheckPlacement())
}
