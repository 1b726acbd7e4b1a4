package models

import (
	"fmt"

	"repro/internal/frontend/onnx"
	"repro/internal/relay"
	"repro/internal/tensor"
)

// Inception-ResNet v2 arrives through the ONNX frontend (the MXNet export
// path): inception-style multi-branch blocks whose concatenated output is
// projected by a 1×1 convolution and added residually to the block input.

// onnxBuilder is a small authoring helper over the onnx proto types.
type onnxBuilder struct {
	mp   onnx.ModelProto
	rng  *tensor.RNG
	next int
	// channels tracks NCHW channel counts per value for weight sizing.
	channels map[string]int
	err      error
}

func newOnnxBuilder(name string, seed uint64) *onnxBuilder {
	b := &onnxBuilder{rng: tensor.NewRNG(seed), channels: map[string]int{}}
	b.mp.IRVersion = 7
	b.mp.ProducerName = "mxnet-onnx-export"
	b.mp.Graph.Name = name
	return b
}

func (b *onnxBuilder) fresh(prefix string) string {
	b.next++
	return fmt.Sprintf("%s_%d", prefix, b.next-1)
}

func (b *onnxBuilder) fail(format string, args ...interface{}) string {
	if b.err == nil {
		b.err = fmt.Errorf("onnx build: "+format, args...)
	}
	return ""
}

func (b *onnxBuilder) initializer(name string, t *tensor.Tensor) {
	ip, err := onnx.EncodeInitializer(name, t)
	if err != nil {
		b.err = err
		return
	}
	b.mp.Graph.Initializer = append(b.mp.Graph.Initializer, ip)
	b.mp.Graph.Input = append(b.mp.Graph.Input, onnx.ValueInfoProto{Name: name})
}

func (b *onnxBuilder) input(n, c, h, w int) string {
	name := "data"
	b.mp.Graph.Input = append(b.mp.Graph.Input,
		onnx.ValueInfoProto{Name: name, Shape: []int{n, c, h, w}, DType: "float32"})
	b.channels[name] = c
	return name
}

func (b *onnxBuilder) node(opType, out string, inputs []string, attrs map[string]interface{}) string {
	b.mp.Graph.Node = append(b.mp.Graph.Node, onnx.NodeProto{
		OpType: opType, Input: inputs, Output: []string{out}, Attribute: attrs,
	})
	return out
}

func (b *onnxBuilder) conv(x string, filters, kernel, stride, pad int) string {
	inC, ok := b.channels[x]
	if !ok {
		return b.fail("conv input %q unknown", x)
	}
	w := tensor.New(tensor.Float32, tensor.Shape{filters, inC, kernel, kernel})
	w.FillGlorot(b.rng, inC*kernel*kernel, filters)
	wName := b.fresh("w")
	b.initializer(wName, w)
	bName := b.fresh("b")
	b.initializer(bName, tensor.New(tensor.Float32, tensor.Shape{filters}))
	out := b.fresh("conv")
	b.node("Conv", out, []string{x, wName, bName}, map[string]interface{}{
		"strides": []interface{}{float64(stride), float64(stride)},
		"pads":    []interface{}{float64(pad), float64(pad), float64(pad), float64(pad)},
	})
	b.channels[out] = filters
	return out
}

func (b *onnxBuilder) relu(x string) string {
	out := b.fresh("relu")
	b.node("Relu", out, []string{x}, nil)
	b.channels[out] = b.channels[x]
	return out
}

func (b *onnxBuilder) add(x, y string) string {
	out := b.fresh("add")
	b.node("Add", out, []string{x, y}, nil)
	b.channels[out] = b.channels[x]
	return out
}

func (b *onnxBuilder) concat(xs ...string) string {
	out := b.fresh("concat")
	b.node("Concat", out, xs, map[string]interface{}{"axis": float64(1)})
	total := 0
	for _, x := range xs {
		total += b.channels[x]
	}
	b.channels[out] = total
	return out
}

func (b *onnxBuilder) maxPool(x string, k, s int) string {
	out := b.fresh("pool")
	b.node("MaxPool", out, []string{x}, map[string]interface{}{
		"kernel_shape": []interface{}{float64(k), float64(k)},
		"strides":      []interface{}{float64(s), float64(s)},
	})
	b.channels[out] = b.channels[x]
	return out
}

func (b *onnxBuilder) globalAvgPool(x string) string {
	out := b.fresh("gap")
	b.node("GlobalAveragePool", out, []string{x}, nil)
	b.channels[out] = b.channels[x]
	return out
}

func (b *onnxBuilder) flatten(x string) string {
	out := b.fresh("flat")
	b.node("Flatten", out, []string{x}, nil)
	b.channels[out] = b.channels[x]
	return out
}

func (b *onnxBuilder) gemm(x string, units, inFeatures int) string {
	w := tensor.New(tensor.Float32, tensor.Shape{units, inFeatures})
	w.FillGlorot(b.rng, inFeatures, units)
	wName := b.fresh("fcw")
	b.initializer(wName, w)
	bName := b.fresh("fcb")
	b.initializer(bName, tensor.New(tensor.Float32, tensor.Shape{units}))
	out := b.fresh("gemm")
	b.node("Gemm", out, []string{x, wName, bName}, map[string]interface{}{"transB": float64(1)})
	b.channels[out] = units
	return out
}

func (b *onnxBuilder) softmax(x string) string {
	out := b.fresh("prob")
	b.node("Softmax", out, []string{x}, nil)
	b.channels[out] = b.channels[x]
	return out
}

func (b *onnxBuilder) marshal(outputs ...string) ([]byte, error) {
	if b.err != nil {
		return nil, b.err
	}
	b.mp.Graph.Output = outputs
	return onnx.Marshal(&b.mp)
}

// BuildInceptionResNetV2 builds the Inception-ResNet-v2-structured
// classifier (width 0.25): stem, three stages of residual inception blocks
// with reductions, global pool head. Fully Neuron-supported.
func BuildInceptionResNetV2(size Size) (*relay.Module, error) {
	blob, err := inceptionResNetV2(size)
	if err != nil {
		return nil, err
	}
	return onnx.FromONNX(blob)
}

// inceptionResNetV2 emits the serialized ModelProto.
func inceptionResNetV2(size Size) ([]byte, error) {
	input, w := 299, 16
	blocksA, blocksB, blocksC := 4, 8, 4 // 5/10/5 in the full network
	if size == SizeLite {
		input, w = 96, 8
		blocksA, blocksB, blocksC = 1, 2, 1
	}
	b := newOnnxBuilder("inception_resnet_v2", 0x1BE2)
	x := b.input(1, 3, input, input)

	// Stem.
	x = b.relu(b.conv(x, 2*w, 3, 2, 1))
	x = b.relu(b.conv(x, 2*w, 3, 1, 1))
	x = b.maxPool(x, 3, 2)
	x = b.relu(b.conv(x, 4*w, 3, 1, 1))
	x = b.maxPool(x, 3, 2)

	// Residual inception block: branches → concat → 1x1 projection → add.
	resBlock := func(x string, branchW int) string {
		c := b.channels[x]
		b1 := b.relu(b.conv(x, branchW, 1, 1, 0))
		b2 := b.relu(b.conv(x, branchW, 1, 1, 0))
		b2 = b.relu(b.conv(b2, branchW, 3, 1, 1))
		b3 := b.relu(b.conv(x, branchW, 1, 1, 0))
		b3 = b.relu(b.conv(b3, branchW, 3, 1, 1))
		b3 = b.relu(b.conv(b3, branchW, 3, 1, 1))
		mixed := b.concat(b1, b2, b3)
		proj := b.conv(mixed, c, 1, 1, 0) // linear projection back to c
		return b.relu(b.add(x, proj))
	}
	reduce := func(x string, outW int) string {
		// Both branches use VALID 3/2 windows so their spatial dims agree.
		b1 := b.relu(b.conv(x, outW, 3, 2, 0))
		b2 := b.maxPool(x, 3, 2)
		return b.concat(b1, b2)
	}

	for i := 0; i < blocksA; i++ {
		x = resBlock(x, w)
	}
	x = reduce(x, 4*w)
	for i := 0; i < blocksB; i++ {
		x = resBlock(x, 2*w)
	}
	x = reduce(x, 8*w)
	for i := 0; i < blocksC; i++ {
		x = resBlock(x, 2*w)
	}

	x = b.globalAvgPool(x)
	feat := b.channels[x]
	x = b.flatten(x)
	x = b.gemm(x, 1000, feat)
	x = b.softmax(x)
	return b.marshal(x)
}

func init() {
	register(Spec{
		Name: "inception resnet v2", Framework: "ONNX", DataType: tensor.Float32,
		WidthMult: 0.25, Build: BuildInceptionResNetV2,
	})
}
