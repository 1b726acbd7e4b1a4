package soc

import (
	"repro/internal/relay"
	"repro/internal/tensor"
)

// Work summarizes the arithmetic and memory traffic of one kernel launch;
// the cost model consumes nothing else, so the same extraction serves the
// TVM engine, the NeuroPilot CPU engine and the APU.
type Work struct {
	OpName    string
	MACs      int64 // multiply-accumulates (or ALU ops for non-MAC kernels)
	Bytes     int64 // input + output + parameter traffic
	Quantized bool  // int8 path (uses the device's integer throughput)
}

// Add accumulates other into w.
func (w *Work) Add(o Work) {
	w.MACs += o.MACs
	w.Bytes += o.Bytes
	w.Quantized = w.Quantized || o.Quantized
}

func bytesOfType(t relay.Type) int64 {
	switch tt := t.(type) {
	case *relay.TensorType:
		return int64(tt.Shape.Elems()) * int64(tt.DType.Size())
	case *relay.TupleType:
		var n int64
		for _, f := range tt.Fields {
			n += bytesOfType(f)
		}
		return n
	}
	return 0
}

// WorkOf extracts the Work of a single type-checked operator call.
func WorkOf(call *relay.Call) Work {
	w := Work{OpName: call.OpName()}
	outT := call.CheckedType()
	w.Bytes = bytesOfType(outT)
	var shapes [2]tensor.Shape // data, weight
	for i, a := range call.Args {
		t := a.CheckedType()
		w.Bytes += bytesOfType(t)
		if at, ok := t.(*relay.TensorType); ok && i < len(shapes) {
			shapes[i] = at.Shape
			w.Quantized = w.Quantized || i == 0 && at.DType.IsQuantized()
		}
	}
	outElems := int64(1)
	if ot, ok := outT.(*relay.TensorType); ok {
		w.Quantized = w.Quantized || ot.DType.IsQuantized() || ot.DType == tensor.Int32 && ot.Quant != nil
		outElems = int64(ot.Shape.Elems())
	}
	w.MACs = MACs(call.OpName(), call.Attrs, outElems, shapes[0], shapes[1])
	return w
}

// MACs is the cost model's one multiply-accumulate rule (ALU operations for
// non-MAC kernels), keyed by relay op name: WorkOf applies it to a relay
// call, the Neuron planner to an operation under its opcode's reference
// kernel name, so the two engines cannot disagree about what a layer costs.
// out is the output element count; data and weight are the shapes of the
// first two tensor arguments (nil where the op has none).
func MACs(op string, attrs relay.Attrs, out int64, data, weight tensor.Shape) int64 {
	switch op {
	case "nn.conv2d", "qnn.conv2d":
		kh, kw, icg := weight[1], weight[2], weight[3]
		return out * int64(kh*kw*icg)
	case "nn.dense", "qnn.dense":
		return out * int64(weight[1])
	case "nn.max_pool2d", "nn.avg_pool2d":
		kh, kw := attrs.IntPair("pool_size", 1)
		return out * int64(kh*kw)
	case "nn.global_avg_pool2d", "mean":
		return int64(data.Elems())
	case "nn.softmax":
		return out * 8 // exp + normalize, transcendental-weighted
	case "sigmoid", "tanh", "exp", "sqrt":
		return out * 8
	case "nn.batch_norm":
		return out * 2
	case "nn.lrn":
		return out * (int64(attrs.Int("size", 5)) + 4)
	case "vision.yolo_output":
		return out * 8
	}
	// Elementwise / data movement: one ALU op per output element; the
	// roofline makes these memory-bound anyway.
	return out
}

// FunctionWork sums the work of every operator call in a function body
// (descending into fused Primitive sub-functions).
func FunctionWork(f *relay.Function) Work {
	var total Work
	relay.PostOrderVisit(f.Body, func(e relay.Expr) {
		if c, ok := e.(*relay.Call); ok && c.Op != nil {
			total.Add(WorkOf(c))
		}
	})
	total.OpName = "function"
	return total
}
