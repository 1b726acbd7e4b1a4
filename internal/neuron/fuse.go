package neuron

import (
	"repro/internal/soc"
)

// Operation fusion — the Neuron compiler optimization that mirrors NNAPI's
// operation semantics: a real ANEURALNETWORKS_CONV_2D takes the bias as an
// input, carries the output quantization, and applies a fused activation,
// all in one operation. The converter emits the unfused relay-shaped chain
// (CONV_2D → BIAS_ADD → REQUANTIZE → CLAMP); this pass collapses it so each
// layer costs one launch on its device — and gives the ablation benchmarks
// a measurable knob.

// FusedActivationAttr is the attribute key holding "relu" or "relu6".
const FusedActivationAttr = "fused_activation"

// FusedRequantAttr marks an operation that must requantize its accumulator
// with the requant_* attributes.
const FusedRequantAttr = "fused_requantize"

// fusable anchors: operations that can absorb bias/requantize/activation.
func isFusionAnchor(c OpCode) bool {
	switch c {
	case Conv2D, DepthwiseConv2D, FullyConnected, Add:
		return true
	}
	return false
}

// FuseOperations rewrites the model in place, returning the number of
// operations absorbed. Only single-consumer intermediate values that are not
// model outputs are folded, so observable behaviour is unchanged.
func FuseOperations(m *Model) int {
	consumers := map[int]int{}
	for _, op := range m.Operations {
		for _, in := range op.Inputs {
			consumers[in]++
		}
	}
	isOutput := map[int]bool{}
	for _, o := range m.Outputs {
		isOutput[o] = true
	}
	// producerOf[operand] = index into m.Operations.
	producerOf := map[int]int{}
	for i, op := range m.Operations {
		for _, out := range op.Outputs {
			producerOf[out] = i
		}
	}

	absorbed := map[int]bool{} // operation indices removed
	fused := 0
	for i := range m.Operations {
		anchor := &m.Operations[i]
		if absorbed[i] || !isFusionAnchor(anchor.Code) {
			continue
		}
		// The anchor's attribute map may be its relay call's (the converter
		// shares it): copy it once, before the first write.
		owned := false
		for {
			out := anchor.Outputs[0]
			if isOutput[out] || consumers[out] != 1 {
				break
			}
			nextIdx, ok := nextConsumer(m, producerOf, out, i)
			if !ok || absorbed[nextIdx] {
				break
			}
			next := &m.Operations[nextIdx]
			switch {
			case next.Code == BiasAdd && anchor.Code != Add && len(anchor.Inputs) == 2 &&
				next.Inputs[0] == out && m.Operands[next.Inputs[1]].IsConst():
				// Absorb the bias as a third input (NNAPI layout).
				anchor.Inputs = append(anchor.Inputs, next.Inputs[1])
			case next.Code == Requantize && next.Inputs[0] == out &&
				anchor.Attrs.Bool(FusedRequantAttr, false) == false:
				if !owned {
					anchor.Attrs, owned = anchor.Attrs.Clone(), true
				}
				anchor.Attrs[FusedRequantAttr] = true
				for _, k := range []string{"input_scale", "input_zero_point",
					"output_scale", "output_zero_point", "out_dtype"} {
					if v, ok := next.Attrs[k]; ok {
						anchor.Attrs["requant_"+k] = v
					}
				}
			case isFusableActivation(next) && next.Inputs[0] == out &&
				anchor.Attrs.Str(FusedActivationAttr, "") == "":
				if !owned {
					anchor.Attrs, owned = anchor.Attrs.Clone(), true
				}
				anchor.Attrs[FusedActivationAttr] = activationName(next)
			default:
				goto done
			}
			anchor.Outputs = next.Outputs
			absorbed[nextIdx] = true
			producerOf[anchor.Outputs[0]] = i
			fused++
			// A fused activation terminates the chain (nothing fuses after
			// an activation in NNAPI).
			if anchor.Attrs.Str(FusedActivationAttr, "") != "" {
				break
			}
		}
	done:
	}
	if fused == 0 {
		return 0
	}
	kept := m.Operations[:0]
	for i := range m.Operations {
		if !absorbed[i] {
			kept = append(kept, m.Operations[i])
		}
	}
	m.Operations = kept
	return fused
}

// nextConsumer finds the operation consuming the operand (its single
// consumer), scanning forward from the anchor.
func nextConsumer(m *Model, producerOf map[int]int, operand, after int) (int, bool) {
	for i := after + 1; i < len(m.Operations); i++ {
		for _, in := range m.Operations[i].Inputs {
			if in == operand {
				return i, true
			}
		}
	}
	return 0, false
}

func isFusableActivation(op *Operation) bool {
	switch op.Code {
	case ReLU:
		return true
	case Clamp:
		return op.Attrs.Float("a_min", -1) == 0 && op.Attrs.Float("a_max", -1) == 6
	}
	return false
}

func activationName(op *Operation) string {
	if op.Code == ReLU {
		return "relu"
	}
	return "relu6"
}

// fusedWork extends an anchor's work summary with the absorbed epilogue
// (bias + requant + activation are elementwise over the output).
func fusedWork(m *Model, op Operation) soc.Work {
	w := workOf(m, op)
	extra := int64(0)
	outElems := int64(m.Operands[op.Outputs[0]].Type.Shape.Elems())
	if len(op.Inputs) >= 3 && isFusionAnchor(op.Code) && op.Code != Add {
		extra += outElems
	}
	if op.Attrs.Bool(FusedRequantAttr, false) {
		extra += outElems
	}
	if op.Attrs.Str(FusedActivationAttr, "") != "" {
		extra += outElems
	}
	w.MACs += extra
	return w
}
