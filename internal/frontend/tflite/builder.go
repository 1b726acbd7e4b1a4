package tflite

import (
	"bytes"
	"fmt"
	"math"

	"repro/internal/frontend"
	"repro/internal/tensor"
)

// Builder is the authoring side of the frontend — the stand-in for the
// TensorFlow Lite converter that produced the paper's quantized MobileNet
// SSD. The model zoo constructs quantized (uint8) and float models through
// it; weights are synthesized deterministically and quantization parameters
// are derived from the synthetic value ranges.
type Builder struct {
	m   Model
	rng *tensor.RNG
	err error
}

// NewBuilder starts a model.
func NewBuilder(seed uint64) *Builder {
	return &Builder{rng: tensor.NewRNG(seed)}
}

// Err returns the first building error.
func (b *Builder) Err() error { return b.err }

func (b *Builder) fail(format string, args ...interface{}) int {
	if b.err == nil {
		b.err = fmt.Errorf("tflite build: "+format, args...)
	}
	return -1
}

// addTensor appends a tensor table entry.
func (b *Builder) addTensor(name string, dt tensor.DType, shape []int, q *tensor.QuantParams, buf int) int {
	idx := len(b.m.Tensors)
	b.m.Tensors = append(b.m.Tensors, Tensor{
		Name: name, DType: dt, Shape: append([]int(nil), shape...), Quant: q, Buffer: buf,
	})
	return idx
}

// addBuffer appends a constant payload.
func (b *Builder) addBuffer(t *tensor.Tensor) int {
	b.m.Buffers = append(b.m.Buffers, t)
	return len(b.m.Buffers) - 1
}

// Input declares the (single) model input. For quantized models pass the
// input quantization (e.g. scale 1/255, zp 0 for normalized images).
func (b *Builder) Input(name string, shape []int, q *tensor.QuantParams) int {
	dt := tensor.Float32
	if q != nil {
		dt = tensor.UInt8
	}
	idx := b.addTensor(name, dt, shape, q, -1)
	b.m.Inputs = append(b.m.Inputs, idx)
	return idx
}

// Output marks model outputs.
func (b *Builder) Output(tensors ...int) { b.m.Outputs = append(b.m.Outputs, tensors...) }

// TensorShape returns a declared tensor's shape.
func (b *Builder) TensorShape(ti int) []int {
	return append([]int(nil), b.m.Tensors[ti].Shape...)
}

// quantOf returns a tensor's quant params (nil for float tensors).
func (b *Builder) quantOf(ti int) *tensor.QuantParams { return b.m.Tensors[ti].Quant }

// synthWeights creates float weights and, for quantized models, their uint8
// form with symmetric-ish parameters derived from the actual value range.
func (b *Builder) synthWeights(shape tensor.Shape, fanIn, fanOut int, quantized bool) (*tensor.Tensor, *tensor.QuantParams) {
	f := tensor.New(tensor.Float32, shape)
	f.FillGlorot(b.rng, fanIn, fanOut)
	if !quantized {
		return f, nil
	}
	absMax := 0.0
	for i, n := 0, f.Elems(); i < n; i++ {
		if v := math.Abs(f.GetF(i)); v > absMax {
			absMax = v
		}
	}
	if absMax == 0 {
		absMax = 1
	}
	q := tensor.QuantParams{Scale: 2 * absMax / 255, ZeroPoint: 128}
	return f.QuantizeTo(tensor.UInt8, q), &q
}

// actQuant is the fixed activation quantization used by the synthetic
// models: range [-4, 4] over uint8.
func actQuant() *tensor.QuantParams {
	return &tensor.QuantParams{Scale: 8.0 / 255, ZeroPoint: 128}
}

// Conv2D appends a (possibly quantized) convolution with bias and fused
// activation, returning the output tensor index.
func (b *Builder) Conv2D(input, filters, kernel, stride, padding, fusedAct int) int {
	if b.err != nil {
		return -1
	}
	in := b.m.Tensors[input]
	if len(in.Shape) != 4 {
		return b.fail("Conv2D input rank %d", len(in.Shape))
	}
	inC := in.Shape[3]
	quantized := in.Quant != nil
	w, wq := b.synthWeights(tensor.Shape{filters, kernel, kernel, inC}, kernel*kernel*inC, filters, quantized)
	wIdx := b.addTensor(fmt.Sprintf("w%d", len(b.m.Tensors)), w.DType,
		[]int{filters, kernel, kernel, inC}, wq, b.addBuffer(w))

	inputs := []int{input, wIdx}
	if quantized {
		bias := tensor.New(tensor.Int32, tensor.Shape{filters})
		bq := tensor.QuantParams{Scale: in.Quant.Scale * wq.Scale, ZeroPoint: 0}
		bIdx := b.addTensor(fmt.Sprintf("b%d", len(b.m.Tensors)), tensor.Int32,
			[]int{filters}, &bq, b.addBuffer(bias))
		inputs = append(inputs, bIdx)
	} else {
		bias := tensor.New(tensor.Float32, tensor.Shape{filters})
		bIdx := b.addTensor(fmt.Sprintf("b%d", len(b.m.Tensors)), tensor.Float32,
			[]int{filters}, nil, b.addBuffer(bias))
		inputs = append(inputs, bIdx)
	}

	oh := frontend.OutDim(in.Shape[1], kernel, stride, padding == PaddingSame)
	ow := frontend.OutDim(in.Shape[2], kernel, stride, padding == PaddingSame)
	var oq *tensor.QuantParams
	dt := tensor.Float32
	if quantized {
		oq = actQuant()
		dt = tensor.UInt8
	}
	out := b.addTensor(fmt.Sprintf("conv%d", len(b.m.Tensors)), dt,
		[]int{in.Shape[0], oh, ow, filters}, oq, -1)
	b.m.Operators = append(b.m.Operators, Operator{
		Opcode: OpConv2D, Inputs: inputs, Outputs: []int{out},
		Options: map[string]float64{
			"stride_h": float64(stride), "stride_w": float64(stride),
			"padding": float64(padding), "fused_activation_function": float64(fusedAct),
		},
	})
	return out
}

// DepthwiseConv2D appends a depthwise convolution (1HWC weights).
func (b *Builder) DepthwiseConv2D(input, kernel, stride, padding, fusedAct int) int {
	if b.err != nil {
		return -1
	}
	in := b.m.Tensors[input]
	if len(in.Shape) != 4 {
		return b.fail("DepthwiseConv2D input rank %d", len(in.Shape))
	}
	c := in.Shape[3]
	quantized := in.Quant != nil
	w, wq := b.synthWeights(tensor.Shape{1, kernel, kernel, c}, kernel*kernel, 1, quantized)
	wIdx := b.addTensor(fmt.Sprintf("dw%d", len(b.m.Tensors)), w.DType,
		[]int{1, kernel, kernel, c}, wq, b.addBuffer(w))
	inputs := []int{input, wIdx}
	if quantized {
		bias := tensor.New(tensor.Int32, tensor.Shape{c})
		bq := tensor.QuantParams{Scale: in.Quant.Scale * wq.Scale, ZeroPoint: 0}
		inputs = append(inputs, b.addTensor(fmt.Sprintf("b%d", len(b.m.Tensors)),
			tensor.Int32, []int{c}, &bq, b.addBuffer(bias)))
	} else {
		bias := tensor.New(tensor.Float32, tensor.Shape{c})
		inputs = append(inputs, b.addTensor(fmt.Sprintf("b%d", len(b.m.Tensors)),
			tensor.Float32, []int{c}, nil, b.addBuffer(bias)))
	}
	oh := frontend.OutDim(in.Shape[1], kernel, stride, padding == PaddingSame)
	ow := frontend.OutDim(in.Shape[2], kernel, stride, padding == PaddingSame)
	var oq *tensor.QuantParams
	dt := tensor.Float32
	if quantized {
		oq = actQuant()
		dt = tensor.UInt8
	}
	out := b.addTensor(fmt.Sprintf("dwout%d", len(b.m.Tensors)), dt,
		[]int{in.Shape[0], oh, ow, c}, oq, -1)
	b.m.Operators = append(b.m.Operators, Operator{
		Opcode: OpDepthwiseConv2D, Inputs: inputs, Outputs: []int{out},
		Options: map[string]float64{
			"stride_h": float64(stride), "stride_w": float64(stride),
			"padding": float64(padding), "fused_activation_function": float64(fusedAct),
			"depth_multiplier": 1,
		},
	})
	return out
}

// Pool appends a max/average pool with VALID padding.
func (b *Builder) Pool(opcode, input, filter, stride int) int {
	return b.PoolPadded(opcode, input, filter, stride, PaddingValid)
}

// PoolPadded appends a pool with an explicit padding scheme (inception-style
// stride-1 SAME average pools keep spatial dims).
func (b *Builder) PoolPadded(opcode, input, filter, stride, padding int) int {
	if b.err != nil {
		return -1
	}
	in := b.m.Tensors[input]
	oh := frontend.OutDim(in.Shape[1], filter, stride, padding == PaddingSame)
	ow := frontend.OutDim(in.Shape[2], filter, stride, padding == PaddingSame)
	out := b.addTensor(fmt.Sprintf("pool%d", len(b.m.Tensors)), in.DType,
		[]int{in.Shape[0], oh, ow, in.Shape[3]}, in.Quant, -1)
	b.m.Operators = append(b.m.Operators, Operator{
		Opcode: opcode, Inputs: []int{input}, Outputs: []int{out},
		Options: map[string]float64{
			"filter_height": float64(filter), "filter_width": float64(filter),
			"stride_h": float64(stride), "stride_w": float64(stride),
			"padding": float64(padding),
		},
	})
	return out
}

// Reshape appends a reshape.
func (b *Builder) Reshape(input int, newShape []int) int {
	if b.err != nil {
		return -1
	}
	in := b.m.Tensors[input]
	out := b.addTensor(fmt.Sprintf("reshape%d", len(b.m.Tensors)), in.DType, newShape, in.Quant, -1)
	b.m.Operators = append(b.m.Operators, Operator{
		Opcode: OpReshape, Inputs: []int{input}, Outputs: []int{out},
		IntListOptions: map[string][]int{"new_shape": append([]int(nil), newShape...)},
	})
	return out
}

// Concat appends a concatenation along axis.
func (b *Builder) Concat(axis int, inputs ...int) int {
	if b.err != nil {
		return -1
	}
	first := b.m.Tensors[inputs[0]]
	shape := append([]int(nil), first.Shape...)
	if axis < 0 {
		axis += len(shape)
	}
	shape[axis] = 0
	for _, ti := range inputs {
		shape[axis] += b.m.Tensors[ti].Shape[axis]
	}
	q := first.Quant
	out := b.addTensor(fmt.Sprintf("concat%d", len(b.m.Tensors)), first.DType, shape, q, -1)
	b.m.Operators = append(b.m.Operators, Operator{
		Opcode: OpConcatenation, Inputs: append([]int(nil), inputs...), Outputs: []int{out},
		Options: map[string]float64{"axis": float64(axis)},
	})
	return out
}

// Add appends an elementwise add.
func (b *Builder) Add(lhs, rhs int) int {
	if b.err != nil {
		return -1
	}
	in := b.m.Tensors[lhs]
	out := b.addTensor(fmt.Sprintf("add%d", len(b.m.Tensors)), in.DType, in.Shape, in.Quant, -1)
	b.m.Operators = append(b.m.Operators, Operator{
		Opcode: OpAdd, Inputs: []int{lhs, rhs}, Outputs: []int{out},
		Options: map[string]float64{"fused_activation_function": ActNone},
	})
	return out
}

// Logistic appends a sigmoid. Quantized outputs use TFLite's canonical
// LOGISTIC output params (scale 1/256, zp 0).
func (b *Builder) Logistic(input int) int {
	if b.err != nil {
		return -1
	}
	in := b.m.Tensors[input]
	var q *tensor.QuantParams
	if in.Quant != nil {
		q = &tensor.QuantParams{Scale: 1.0 / 256, ZeroPoint: 0}
	}
	out := b.addTensor(fmt.Sprintf("logistic%d", len(b.m.Tensors)), in.DType, in.Shape, q, -1)
	b.m.Operators = append(b.m.Operators, Operator{
		Opcode: OpLogistic, Inputs: []int{input}, Outputs: []int{out},
	})
	return out
}

// Softmax appends a softmax (same canonical quant output as LOGISTIC).
func (b *Builder) Softmax(input int) int {
	if b.err != nil {
		return -1
	}
	in := b.m.Tensors[input]
	var q *tensor.QuantParams
	if in.Quant != nil {
		q = &tensor.QuantParams{Scale: 1.0 / 256, ZeroPoint: 0}
	}
	out := b.addTensor(fmt.Sprintf("softmax%d", len(b.m.Tensors)), in.DType, in.Shape, q, -1)
	b.m.Operators = append(b.m.Operators, Operator{
		Opcode: OpSoftmax, Inputs: []int{input}, Outputs: []int{out},
		Options: map[string]float64{"beta": 1},
	})
	return out
}

// MeanSpatial appends MEAN over the H,W axes.
func (b *Builder) MeanSpatial(input int) int {
	if b.err != nil {
		return -1
	}
	in := b.m.Tensors[input]
	out := b.addTensor(fmt.Sprintf("mean%d", len(b.m.Tensors)), in.DType,
		[]int{in.Shape[0], in.Shape[3]}, in.Quant, -1)
	b.m.Operators = append(b.m.Operators, Operator{
		Opcode: OpMean, Inputs: []int{input}, Outputs: []int{out},
		IntListOptions: map[string][]int{"axis": {1, 2}},
	})
	return out
}

// FullyConnected appends a (possibly quantized) dense layer.
func (b *Builder) FullyConnected(input, units, fusedAct int) int {
	if b.err != nil {
		return -1
	}
	in := b.m.Tensors[input]
	k := 1
	for _, d := range in.Shape[1:] {
		k *= d
	}
	quantized := in.Quant != nil
	w, wq := b.synthWeights(tensor.Shape{units, k}, k, units, quantized)
	wIdx := b.addTensor(fmt.Sprintf("fcw%d", len(b.m.Tensors)), w.DType, []int{units, k}, wq, b.addBuffer(w))
	inputs := []int{input, wIdx}
	if quantized {
		bias := tensor.New(tensor.Int32, tensor.Shape{units})
		bq := tensor.QuantParams{Scale: in.Quant.Scale * wq.Scale, ZeroPoint: 0}
		inputs = append(inputs, b.addTensor(fmt.Sprintf("fcb%d", len(b.m.Tensors)),
			tensor.Int32, []int{units}, &bq, b.addBuffer(bias)))
	} else {
		bias := tensor.New(tensor.Float32, tensor.Shape{units})
		inputs = append(inputs, b.addTensor(fmt.Sprintf("fcb%d", len(b.m.Tensors)),
			tensor.Float32, []int{units}, nil, b.addBuffer(bias)))
	}
	var oq *tensor.QuantParams
	dt := tensor.Float32
	if quantized {
		oq = actQuant()
		dt = tensor.UInt8
	}
	out := b.addTensor(fmt.Sprintf("fc%d", len(b.m.Tensors)), dt, []int{in.Shape[0], units}, oq, -1)
	b.m.Operators = append(b.m.Operators, Operator{
		Opcode: OpFullyConnected, Inputs: inputs, Outputs: []int{out},
		Options: map[string]float64{"fused_activation_function": float64(fusedAct)},
	})
	return out
}

// Dequantize appends an explicit dequantize (quantized output heads).
func (b *Builder) Dequantize(input int) int {
	if b.err != nil {
		return -1
	}
	in := b.m.Tensors[input]
	out := b.addTensor(fmt.Sprintf("deq%d", len(b.m.Tensors)), tensor.Float32, in.Shape, nil, -1)
	b.m.Operators = append(b.m.Operators, Operator{
		Opcode: OpDequantize, Inputs: []int{input}, Outputs: []int{out},
	})
	return out
}

// Finish validates and returns the model.
func (b *Builder) Finish() (*Model, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.m.Inputs) == 0 || len(b.m.Outputs) == 0 {
		return nil, fmt.Errorf("tflite build: model needs inputs and outputs")
	}
	return &b.m, nil
}

// Bytes serializes the finished model.
func (b *Builder) Bytes() ([]byte, error) {
	m, err := b.Finish()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := m.Serialize(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
