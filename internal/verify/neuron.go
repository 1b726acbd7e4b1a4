package verify

import (
	"fmt"

	"repro/internal/neuron"
)

// opSignature is the NNAPI-style arity contract of one Neuron operation.
// minIn/maxIn bound the input operand count (maxIn < 0 means unbounded, the
// CONCATENATION case); outs is the exact output operand count. The fused
// forms the Neuron compiler produces (conv+bias, dense+bias) raise maxIn by
// one over the converter's unfused emission.
type opSignature struct {
	minIn, maxIn, outs int
}

var opSignatures = map[neuron.OpCode]opSignature{
	neuron.Conv2D:              {2, 3, 1}, // data, weight [, fused bias]
	neuron.DepthwiseConv2D:     {2, 3, 1},
	neuron.FullyConnected:      {2, 3, 1},
	neuron.MaxPool2D:           {1, 1, 1},
	neuron.AveragePool2D:       {1, 1, 1},
	neuron.GlobalAveragePool2D: {1, 1, 1},
	neuron.ReLU:                {1, 1, 1},
	neuron.Clamp:               {1, 1, 1},
	neuron.Logistic:            {1, 1, 1},
	neuron.TanhOp:              {1, 1, 1},
	neuron.Softmax:             {1, 1, 1},
	neuron.Add:                 {2, 2, 1},
	neuron.Sub:                 {2, 2, 1},
	neuron.Mul:                 {2, 2, 1},
	neuron.Max:                 {2, 2, 1},
	neuron.Min:                 {2, 2, 1},
	neuron.Concatenation:       {1, -1, 1},
	neuron.Reshape:             {1, 1, 1},
	neuron.Transpose:           {1, 1, 1},
	neuron.Squeeze:             {1, 1, 1},
	neuron.ExpandDims:          {1, 1, 1},
	neuron.Pad:                 {1, 1, 1},
	neuron.ResizeNearest:       {1, 1, 1},
	neuron.Quantize:            {1, 1, 1},
	neuron.Dequantize:          {1, 1, 1},
	neuron.Requantize:          {1, 1, 1},
	neuron.BiasAdd:             {2, 2, 1},
}

// fusedActivations are the activation names the Neuron operation-fusion pass
// may stamp on an anchor operation.
var fusedActivations = map[string]bool{"relu": true, "relu6": true}

// operandWhere and opWhere format a diagnostic's location. They are called
// only where a finding is emitted: formatting one per operand and operation
// of a clean model was a fifth of a BYOC build.
func operandWhere(m *neuron.Model, i int) string {
	return fmt.Sprintf("model %q operand #%d (%s)", m.Name, i, m.Operands[i].Name)
}

func opWhere(m *neuron.Model, oi int, op neuron.Operation) string {
	return fmt.Sprintf("model %q op #%d %s", m.Name, oi, op.Code)
}

// NeuronModel verifies the tensor-oriented invariants of a Neuron IR model:
// operand indices in bounds, every quantized operand carrying scale and
// zero-point (the paper's §3.3 invariant), per-operation arity against the
// NNAPI-style signature table, topological operation order, constants never
// written, and fused conv+bias+requantize+activation forms remaining valid.
func NeuronModel(m *neuron.Model) *Result {
	res := &Result{}
	n := len(m.Operands)
	inBounds := func(idx int) bool { return idx >= 0 && idx < n }

	// Operand table: quantization params and constant shape agreement.
	for i, od := range m.Operands {
		if od.Type.DType.IsQuantized() {
			if od.Type.Quant == nil {
				res.errorf("quant-params", operandWhere(m, i),
					"operand is %s but carries no scale/zero-point — Neuron IR is tensor-oriented, "+
						"quantization parameters must ride on every operand", od.Type.DType)
			} else if od.Type.Quant.Scale <= 0 {
				res.errorf("quant-params", operandWhere(m, i),
					"operand has non-positive quantization scale %g", od.Type.Quant.Scale)
			}
		}
		if od.IsConst() && !od.Const.Shape.Equal(od.Type.Shape) {
			res.errorf("const-type", operandWhere(m, i),
				"constant value shape %s disagrees with declared %s", od.Const.Shape, od.Type.Shape)
		}
	}

	// Model inputs/outputs.
	for _, i := range m.Inputs {
		if !inBounds(i) {
			res.errorf("operand-range", fmt.Sprintf("model %q", m.Name),
				"input operand %d out of range (%d operands)", i, n)
		} else if m.Operands[i].IsConst() {
			res.errorf("input-const", fmt.Sprintf("model %q", m.Name),
				"input operand %d (%s) is a compile-time constant", i, m.Operands[i].Name)
		}
	}
	for _, i := range m.Outputs {
		if !inBounds(i) {
			res.errorf("operand-range", fmt.Sprintf("model %q", m.Name),
				"output operand %d out of range (%d operands)", i, n)
		}
	}

	// Operation list: arity, bounds, topological order, fusion attributes.
	defined := make([]bool, n)
	for _, i := range m.Inputs {
		if inBounds(i) {
			defined[i] = true
		}
	}
	for i, od := range m.Operands {
		if od.IsConst() {
			defined[i] = true
		}
	}
	for oi, op := range m.Operations {
		if !neuron.KnownOpCode(op.Code) {
			res.errorf("unknown-opcode", opWhere(m, oi, op),
				"opcode %d is not in the Neuron catalogue", int(op.Code))
			continue
		}
		sig, ok := opSignatures[op.Code]
		if !ok {
			res.errorf("op-signature", opWhere(m, oi, op), "opcode has no signature in the verifier table")
			continue
		}
		if len(op.Inputs) < sig.minIn || (sig.maxIn >= 0 && len(op.Inputs) > sig.maxIn) {
			if sig.maxIn == sig.minIn {
				res.errorf("op-arity", opWhere(m, oi, op), "operation has %d inputs, signature wants %d",
					len(op.Inputs), sig.minIn)
			} else {
				res.errorf("op-arity", opWhere(m, oi, op), "operation has %d inputs, signature wants %d..%d",
					len(op.Inputs), sig.minIn, sig.maxIn)
			}
		}
		if len(op.Outputs) != sig.outs {
			res.errorf("op-arity", opWhere(m, oi, op), "operation has %d outputs, signature wants %d",
				len(op.Outputs), sig.outs)
		}
		for _, in := range op.Inputs {
			if !inBounds(in) {
				res.errorf("operand-range", opWhere(m, oi, op), "input operand %d out of range (%d operands)", in, n)
				continue
			}
			if !defined[in] {
				res.errorf("topo-order", opWhere(m, oi, op),
					"uses operand %d before any operation produces it (operations must be topologically ordered)", in)
			}
		}
		for _, out := range op.Outputs {
			if !inBounds(out) {
				res.errorf("operand-range", opWhere(m, oi, op), "output operand %d out of range (%d operands)", out, n)
				continue
			}
			if m.Operands[out].IsConst() {
				res.errorf("write-const", opWhere(m, oi, op),
					"writes constant operand %d (%s)", out, m.Operands[out].Name)
			}
			defined[out] = true
		}
		checkFusedForm(res, m, oi, op, inBounds)
	}
	for _, i := range m.Outputs {
		if inBounds(i) && !defined[i] {
			res.errorf("output-produced", fmt.Sprintf("model %q", m.Name),
				"model output %d is never produced by any operation", i)
		}
	}
	return res
}

// checkFusedForm validates the epilogues the Neuron operation-fusion pass
// attaches to an anchor: a third bias input must be a rank-1 constant, a
// fused activation must be a known activation name, and a fused requantize
// must carry its output scale.
func checkFusedForm(res *Result, m *neuron.Model, oi int, op neuron.Operation, inBounds func(int) bool) {
	switch op.Code {
	case neuron.Conv2D, neuron.DepthwiseConv2D, neuron.FullyConnected:
		if len(op.Inputs) == 3 && inBounds(op.Inputs[2]) {
			bias := m.Operands[op.Inputs[2]]
			if !bias.IsConst() {
				res.errorf("fused-bias", opWhere(m, oi, op),
					"fused bias operand %d (%s) is not a constant", op.Inputs[2], bias.Name)
			} else if len(bias.Type.Shape) != 1 {
				res.errorf("fused-bias", opWhere(m, oi, op), "fused bias operand %d has shape %s, want rank 1",
					op.Inputs[2], bias.Type.Shape)
			}
		}
	}
	if act := op.Attrs.Str("fused_activation", ""); act != "" && !fusedActivations[act] {
		res.errorf("fused-activation", opWhere(m, oi, op), "fused activation %q is not a known activation", act)
	}
	if op.Attrs.Bool("fused_requantize", false) {
		if op.Attrs.Float("requant_output_scale", 0) <= 0 {
			res.errorf("fused-requantize", opWhere(m, oi, op),
				"operation fuses a requantize but carries no positive requant_output_scale attribute")
		}
	}
}

// NeuronModelErr is NeuronModel returning an error.
func NeuronModelErr(m *neuron.Model) error { return NeuronModel(m).Err() }

// Plan verifies a compiled model's execution plan: one device per operation,
// each drawn from the enabled device set, and each supporting the operation
// it was assigned — the Execution Planner must never place an op on a device
// whose supported-op set does not contain it.
func Plan(cm *neuron.CompiledModel) *Result {
	res := NeuronModel(cm.Model)
	enabled := map[int]bool{}
	for _, d := range cm.Devices {
		enabled[int(d)] = true
	}
	if len(cm.Plan) != len(cm.Model.Operations) {
		res.errorf("plan-length", fmt.Sprintf("model %q", cm.Model.Name),
			"plan covers %d operations, model has %d", len(cm.Plan), len(cm.Model.Operations))
		return res
	}
	for oi, dev := range cm.Plan {
		op := cm.Model.Operations[oi]
		if !enabled[int(dev)] {
			res.errorf("plan-device", opWhere(cm.Model, oi, op),
				"assigned to %s, which is not among the enabled devices %v", dev, cm.Devices)
		}
		if !neuron.SupportedOn(op.Code, dev) {
			res.errorf("plan-unsupported", opWhere(cm.Model, oi, op),
				"assigned to %s, whose supported-op set does not contain %s", dev, op.Code)
		}
	}
	return res
}

// PlanErr is Plan returning an error.
func PlanErr(cm *neuron.CompiledModel) error { return Plan(cm).Err() }
