// Package nir implements the paper's contribution: NeuroPilot support for
// TVM through the BYOC flow. It provides
//
//   - the supported-operator dictionary that AnnotateTarget consults,
//   - PartitionForNIR (the paper's partition_for_nir) that carves the relay
//     graph into host and NeuroPilot regions,
//   - the ExprVisitor-based converter of Listing 1 — post-order DFS with
//     NodeEntry records and an op-handler dictionary — that lowers each
//     external region into Neuron IR, carrying quantization parameters onto
//     every operand (the §3.3 QNN augmentation), and
//   - the codegen step that hands each Neuron model to the NeuroPilot
//     compiler/Execution Planner for the enabled devices.
package nir

import (
	"fmt"

	"repro/internal/neuron"
	"repro/internal/passes"
	"repro/internal/relay"
	"repro/internal/soc"
	"repro/internal/tensor"
	"repro/internal/verify"
)

// CompilerName is the Compiler attribute value marking NIR regions.
const CompilerName = "nir"

// Supported reports whether the NeuroPilot backend can take a relay call.
// An op is supported when the converter dictionary has a handler for it and
// the call satisfies that handler's structural constraints. Anything else —
// leaky_relu, lrn, mean, strided_slice, exp, sqrt, divide, the YOLO decode —
// stays on the TVM side, which is what produces both the partitioned
// subgraphs and the missing NeuroPilot-only statistics of Figures 4/6.
func Supported(call *relay.Call) bool {
	_, ok := supportedOpcode(call)
	return ok
}

// supportedOpcode is Supported plus the answer device coverage needs: the
// opcode this call lowers to.
func supportedOpcode(call *relay.Call) (neuron.OpCode, bool) {
	if call.Op == nil {
		return 0, false
	}
	h, ok := opHandlerDict[call.Op.Name]
	if !ok || h.check != nil && !h.check(call) {
		return 0, false
	}
	return h.opcode(call)
}

// SupportedOpNames returns the relay ops in the conversion dictionary;
// exported for tests and docs.
func SupportedOpNames() []string {
	names := make([]string, 0, len(opHandlerDict))
	for n := range opHandlerDict {
		names = append(names, n)
	}
	return names
}

// OpcodeOf maps a relay op name to its Neuron opcode (standard, non-grouped
// form); exported for the support-matrix documentation tool.
func OpcodeOf(name string) (neuron.OpCode, bool) {
	h, ok := opHandlerDict[name]
	return h.code, ok
}

// float32Or8Bit restricts an op to the dtypes the Neuron backend implements.
func float32Or8Bit(call *relay.Call) bool {
	t, ok := call.CheckedType().(*relay.TensorType)
	if !ok {
		return true // checked post-inference; be permissive pre-inference
	}
	switch t.DType {
	case tensor.Float32, tensor.Int8, tensor.UInt8, tensor.Int32:
		return true
	}
	return false
}

// SupportedForDevices narrows Supported to the ops executable on at least
// one of the enabled NeuroPilot devices — the nir_targets parameter of the
// paper's Listing 6. Targeting the APU alone must not offload CPU-only
// operations like LOGISTIC.
func SupportedForDevices(devices []soc.DeviceKind) passes.Supported {
	if len(devices) == 0 {
		devices = []soc.DeviceKind{soc.KindCPU, soc.KindAPU}
	}
	return func(c *relay.Call) bool {
		code, ok := supportedOpcode(c)
		if !ok {
			return false
		}
		for _, d := range devices {
			if neuron.SupportedOn(code, d) {
				return true
			}
		}
		return false
	}
}

// PartitionForNIR is the paper's nir.partition_for_nir: annotate supported
// calls, merge compiler regions, and lift each region into a module-level
// function tagged Compiler="nir". Like TVM's partition_for_* helpers it
// first runs inference-mode simplification and constant folding so that
// training-time constructs (dropout, batch-norm statistics) do not split
// otherwise-contiguous regions. devices narrows the offloaded op set to the
// enabled NeuroPilot targets (Listing 6's nir_targets); empty means CPU+APU.
func PartitionForNIR(m *relay.Module, opts passes.PartitionOptions, devices ...soc.DeviceKind) (*relay.Module, error) {
	m, err := passes.Sequential(m, passes.NewContext(3),
		passes.SimplifyInference(),
		passes.FoldConstant(),
	)
	if err != nil {
		return nil, err
	}
	out, err := passes.PartitionForCompiler(m, CompilerName, SupportedForDevices(devices), opts)
	if err != nil {
		return nil, err
	}
	if err := verify.ModuleErr(out, VerifyOptions()); err != nil {
		return nil, fmt.Errorf("nir: partition_for_nir produced an ill-formed module: %w", err)
	}
	return out, nil
}
