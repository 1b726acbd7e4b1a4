package neuron

import (
	"repro/internal/soc"
)

// OpCode enumerates the Neuron IR operations (an NNAPI-style catalogue).
type OpCode int

const (
	Conv2D OpCode = iota
	DepthwiseConv2D
	FullyConnected
	MaxPool2D
	AveragePool2D
	GlobalAveragePool2D
	ReLU
	Clamp // relu1/relu6 and general clip
	Logistic
	TanhOp
	Softmax
	Add
	Sub
	Mul
	Max
	Min
	Concatenation
	Reshape
	Transpose
	Squeeze
	ExpandDims
	Pad
	ResizeNearest
	Quantize
	Dequantize
	Requantize
	BiasAdd
	numOpCodes // sentinel
)

// opRow is everything the Neuron stack knows about one opcode, stated once:
// String, KernelFor, SupportedOn, the op-arity check and the runtime's
// dispatch plan are all reads of it. The table is indexed by opcode, so an
// opcode added without a row has the zero row: no name, no kernel, and the
// zero arity no operation satisfies — the registry lint and op-arity both
// refuse it.
type opRow struct {
	// name is the NNAPI operation name.
	name string
	// minIn/maxIn bound the input operand count (maxIn < 0 means unbounded,
	// the CONCATENATION case); every operation has exactly one output. The
	// fused forms the Neuron compiler produces (conv+bias, dense+bias) raise
	// maxIn by one over the converter's unfused emission.
	minIn, maxIn int
	// kernel is the reference kernel computing the numerics (a relay op name
	// in the shared TOPI inventory); qkernel is the integer-path kernel where
	// that differs, fused the single-launch kernel for a quantized anchor
	// whose absorbed requantize keeps the whole chain in integer math.
	kernel, qkernel, fused string
	// not is the set of devices that cannot run the opcode, one bit per
	// soc.DeviceKind. The Neuron CPU backend implements the whole catalogue.
	not uint8
}

const (
	// noAPU marks opcodes the AI accelerator cannot execute; the Execution
	// Planner must place these on the Neuron CPU backend. The set mirrors the
	// paper's observation that NeuroPilot's accelerator covers fewer
	// operations than its CPU path.
	noAPU = 1 << soc.KindAPU
	// noGPU marks opcodes the GPU path cannot execute: the Mali GPU delegate
	// has no integer-quantization pipeline, so the quantized ops stay off it
	// (the planner additionally keeps quantized *work* off the GPU).
	noGPU = 1 << soc.KindGPU
)

var opTable = [numOpCodes]opRow{
	Conv2D:              {name: "CONV_2D", minIn: 2, maxIn: 3, kernel: "nn.conv2d", qkernel: "qnn.conv2d", fused: "qnn.conv2d_fused"},
	DepthwiseConv2D:     {name: "DEPTHWISE_CONV_2D", minIn: 2, maxIn: 3, kernel: "nn.conv2d", qkernel: "qnn.conv2d", fused: "qnn.conv2d_fused"},
	FullyConnected:      {name: "FULLY_CONNECTED", minIn: 2, maxIn: 3, kernel: "nn.dense", qkernel: "qnn.dense", fused: "qnn.dense_fused"},
	MaxPool2D:           {name: "MAX_POOL_2D", minIn: 1, maxIn: 1, kernel: "nn.max_pool2d"},
	AveragePool2D:       {name: "AVERAGE_POOL_2D", minIn: 1, maxIn: 1, kernel: "nn.avg_pool2d"},
	GlobalAveragePool2D: {name: "GLOBAL_AVERAGE_POOL_2D", minIn: 1, maxIn: 1, kernel: "nn.global_avg_pool2d"},
	ReLU:                {name: "RELU", minIn: 1, maxIn: 1, kernel: "nn.relu"},
	Clamp:               {name: "CLAMP", minIn: 1, maxIn: 1, kernel: "clip"},
	Logistic:            {name: "LOGISTIC", minIn: 1, maxIn: 1, kernel: "sigmoid", not: noAPU},
	TanhOp:              {name: "TANH", minIn: 1, maxIn: 1, kernel: "tanh", not: noAPU},
	Softmax:             {name: "SOFTMAX", minIn: 1, maxIn: 1, kernel: "nn.softmax"},
	Add:                 {name: "ADD", minIn: 2, maxIn: 2, kernel: "add", qkernel: "qnn.add"},
	Sub:                 {name: "SUB", minIn: 2, maxIn: 2, kernel: "subtract"},
	Mul:                 {name: "MUL", minIn: 2, maxIn: 2, kernel: "multiply"},
	Max:                 {name: "MAXIMUM", minIn: 2, maxIn: 2, kernel: "maximum"},
	Min:                 {name: "MINIMUM", minIn: 2, maxIn: 2, kernel: "minimum"},
	Concatenation:       {name: "CONCATENATION", minIn: 1, maxIn: -1, kernel: "concatenate", qkernel: "qnn.concatenate"},
	Reshape:             {name: "RESHAPE", minIn: 1, maxIn: 1, kernel: "reshape"},
	Transpose:           {name: "TRANSPOSE", minIn: 1, maxIn: 1, kernel: "transpose", not: noAPU},
	Squeeze:             {name: "SQUEEZE", minIn: 1, maxIn: 1, kernel: "squeeze"},
	ExpandDims:          {name: "EXPAND_DIMS", minIn: 1, maxIn: 1, kernel: "expand_dims"},
	Pad:                 {name: "PAD", minIn: 1, maxIn: 1, kernel: "nn.pad"},
	ResizeNearest:       {name: "RESIZE_NEAREST_NEIGHBOR", minIn: 1, maxIn: 1, kernel: "nn.upsampling"},
	Quantize:            {name: "QUANTIZE", minIn: 1, maxIn: 1, kernel: "qnn.quantize", not: noGPU},
	Dequantize:          {name: "DEQUANTIZE", minIn: 1, maxIn: 1, kernel: "qnn.dequantize", not: noGPU},
	Requantize:          {name: "REQUANTIZE", minIn: 1, maxIn: 1, kernel: "qnn.requantize", not: noGPU},
	BiasAdd:             {name: "BIAS_ADD", minIn: 2, maxIn: 2, kernel: "nn.bias_add"},
}

// unknownOp is the row of a value outside the catalogue: no kernel, no
// device.
var unknownOp = opRow{name: "OP_UNKNOWN", not: 1<<soc.NumDeviceKinds - 1}

func (c OpCode) row() *opRow {
	if KnownOpCode(c) {
		return &opTable[c]
	}
	return &unknownOp
}

func (c OpCode) String() string { return c.row().name }

// KnownOpCode reports whether c is a valid opcode.
func KnownOpCode(c OpCode) bool { return c >= 0 && c < numOpCodes }

// OpCodes returns every opcode in the catalogue, in order; the registry
// lint walks it to cross-check kernel mappings and device coverage.
func OpCodes() []OpCode {
	out := make([]OpCode, 0, int(numOpCodes))
	for c := OpCode(0); c < numOpCodes; c++ {
		out = append(out, c)
	}
	return out
}

// SupportedOn reports whether the opcode can run on the given device under
// the NeuroPilot runtime. The paper's experiments use CPU and APU only; the
// GPU path is an extension (NeuroPilot does list the mobile GPU among its
// backends, §5).
func SupportedOn(c OpCode, dev soc.DeviceKind) bool {
	return dev >= 0 && dev < soc.NumDeviceKinds && c.row().not&(1<<dev) == 0
}

// KernelFor maps an opcode to the reference kernel (relay op name in the
// shared TOPI inventory) used to compute its numerics. The quantized flag
// selects the integer path where the kernel differs.
func KernelFor(c OpCode, quantized bool) string {
	r := c.row()
	if quantized && r.qkernel != "" {
		return r.qkernel
	}
	return r.kernel
}
