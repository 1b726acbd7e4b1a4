package analysis

import (
	"fmt"

	"repro/internal/neuron"
	"repro/internal/soc"
	"repro/internal/verify"
)

// Device-transfer legality: an audit of a compiled NeuroPilot region's
// device plan. The structural half (one enabled, supporting device per
// operation: plan-length, plan-device, plan-unsupported) is
// neuron.CompiledModel.CheckPlacement, reported here under the region's
// name; this analysis adds the dataflow half — a linear forward scan that
// tracks which device's memory holds each operand, exactly as the Execution
// Planner and Estimate do, and flags placements that are legal
// per-operation but illegal per-value:
//
//	device-gpu-quantized    (error) quantized work placed on the GPU
//	                        delegate, which has no integer pipeline — the
//	                        planner never does this, so seeing it means the
//	                        plan was edited or deserialized from a bad
//	                        artifact
//	device-indirect-transfer (warning) a value produced on the APU consumed
//	                        directly on the GPU or vice versa; the hardware
//	                        has no such link, the value stages through host
//	                        memory and pays the DMA twice
func DeviceLegality(region string, cm *neuron.CompiledModel) *verify.Result {
	res := &verify.Result{}
	for _, f := range cm.CheckPlacement() {
		res.Errorf(f.Check, region+": "+f.Where, "%s", f.Msg)
	}
	m := cm.Model
	if len(cm.Plan) != len(m.Operations) {
		return res // nothing else is checkable
	}

	// producer[i] is the device whose memory holds operand i right now;
	// model inputs and constants start in host memory.
	producer := make([]soc.DeviceKind, len(m.Operands))
	for i := range producer {
		producer[i] = soc.KindCPU
	}
	for oi, op := range m.Operations {
		dev := cm.Plan[oi]
		where := fmt.Sprintf("%s: operation %d (%s)", region, oi, op.Code)
		if dev == soc.KindGPU {
			for _, in := range op.Inputs {
				if in >= 0 && in < len(m.Operands) && m.Operands[in].Type.DType.IsQuantized() {
					res.Errorf("device-gpu-quantized", where,
						"consumes quantized operand %d (%s) on the GPU delegate, which has no integer pipeline",
						in, m.Operands[in].Type)
					break
				}
			}
		}
		for _, in := range op.Inputs {
			if in < 0 || in >= len(m.Operands) || m.Operands[in].IsConst() {
				continue // weights are preloaded on every device at compile time
			}
			from := producer[in]
			if (from == soc.KindAPU && dev == soc.KindGPU) || (from == soc.KindGPU && dev == soc.KindAPU) {
				res.Warnf("device-indirect-transfer", where,
					"consumes operand %d produced on %s; there is no %s→%s link, the value stages through host memory",
					in, from, from, dev)
			}
		}
		for _, out := range op.Outputs {
			if out >= 0 && out < len(m.Operands) {
				producer[out] = dev
			}
		}
	}
	return res
}
