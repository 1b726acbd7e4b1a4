package onnx

import (
	"strings"
	"testing"

	"repro/internal/relay"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

// buildModel assembles a small ONNX classifier by hand: conv/relu ×2,
// global pool, flatten, gemm, softmax.
func buildModel(t *testing.T) []byte {
	t.Helper()
	rng := tensor.NewRNG(17)
	newT := func(shape ...int) *tensor.Tensor {
		x := tensor.New(tensor.Float32, tensor.Shape(shape))
		x.FillGlorot(rng, shape[len(shape)-1]*9, shape[0])
		return x
	}
	inits := []InitializerProto{}
	addInit := func(name string, x *tensor.Tensor) {
		ip, err := EncodeInitializer(name, x)
		if err != nil {
			t.Fatal(err)
		}
		inits = append(inits, ip)
	}
	addInit("w1", newT(8, 3, 3, 3)) // OIHW
	addInit("b1", tensor.New(tensor.Float32, tensor.Shape{8}))
	addInit("w2", newT(16, 8, 3, 3))
	addInit("b2", tensor.New(tensor.Float32, tensor.Shape{16}))
	addInit("fc_w", newT(5, 16))
	addInit("fc_b", tensor.New(tensor.Float32, tensor.Shape{5}))

	mp := &ModelProto{
		IRVersion:    7,
		ProducerName: "mxnet-onnx-export",
		Graph: GraphProto{
			Name: "classifier",
			Input: []ValueInfoProto{
				{Name: "data", Shape: []int{1, 3, 16, 16}, DType: "float32"},
				{Name: "w1"}, {Name: "b1"}, {Name: "w2"}, {Name: "b2"},
				{Name: "fc_w"}, {Name: "fc_b"},
			},
			Node: []NodeProto{
				{OpType: "Conv", Input: []string{"data", "w1", "b1"}, Output: []string{"c1"},
					Attribute: map[string]interface{}{
						"strides": []interface{}{1.0, 1.0},
						"pads":    []interface{}{1.0, 1.0, 1.0, 1.0}}},
				{OpType: "Relu", Input: []string{"c1"}, Output: []string{"r1"}},
				{OpType: "Conv", Input: []string{"r1", "w2", "b2"}, Output: []string{"c2"},
					Attribute: map[string]interface{}{
						"strides": []interface{}{2.0, 2.0},
						"pads":    []interface{}{1.0, 1.0, 1.0, 1.0}}},
				{OpType: "Relu", Input: []string{"c2"}, Output: []string{"r2"}},
				{OpType: "GlobalAveragePool", Input: []string{"r2"}, Output: []string{"g"}},
				{OpType: "Flatten", Input: []string{"g"}, Output: []string{"f"}},
				{OpType: "Gemm", Input: []string{"f", "fc_w", "fc_b"}, Output: []string{"fc"}},
				{OpType: "Softmax", Input: []string{"fc"}, Output: []string{"prob"}},
			},
			Output:      []string{"prob"},
			Initializer: inits,
		},
	}
	blob, err := Marshal(mp)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestFromONNXImportsAndRuns(t *testing.T) {
	mod, err := FromONNX(buildModel(t))
	if err != nil {
		t.Fatal(err)
	}
	main := mod.Main()
	it := main.Params[0].TypeAnnotation.(*relay.TensorType)
	if !it.Shape.Equal(tensor.Shape{1, 16, 16, 3}) {
		t.Errorf("input should be NHWC, got %s", it.Shape)
	}
	ret := main.CheckedType().(*relay.FuncType).Ret
	if !ret.Same(relay.TType(tensor.Float32, 1, 5)) {
		t.Errorf("output %s", ret)
	}
	lib, err := runtime.Build(mod, runtime.BuildOptions{OptLevel: 3, UseNIR: true})
	if err != nil {
		t.Fatal(err)
	}
	gm := runtime.NewGraphModule(lib)
	in := tensor.New(tensor.Float32, tensor.Shape{1, 16, 16, 3})
	in.FillUniform(tensor.NewRNG(2), 0, 1)
	gm.SetInput("data", in)
	if err := gm.Run(); err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i := 0; i < 5; i++ {
		sum += gm.MustOutput(0).GetF(i)
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("softmax sums to %g", sum)
	}
}

func TestFromONNXRejectsUnknownOp(t *testing.T) {
	mp := &ModelProto{Graph: GraphProto{
		Input:  []ValueInfoProto{{Name: "x", Shape: []int{1, 3, 8, 8}}},
		Node:   []NodeProto{{OpType: "Einsum", Input: []string{"x"}, Output: []string{"y"}}},
		Output: []string{"y"},
	}}
	blob, _ := Marshal(mp)
	if _, err := FromONNX(blob); err == nil {
		t.Error("unknown op accepted")
	}
}

func TestFromONNXBadJSON(t *testing.T) {
	if _, err := FromONNX([]byte("{oops")); err == nil {
		t.Error("bad json accepted")
	}
}

func TestInitializerRoundTrip(t *testing.T) {
	x := tensor.New(tensor.Float32, tensor.Shape{2, 3})
	x.FillUniform(tensor.NewRNG(1), -1, 1)
	ip, err := EncodeInitializer("w", x)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeInitializer(ip)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(x, back, 0, 0) {
		t.Error("initializer changed in round trip")
	}
	if _, err := decodeInitializer(InitializerProto{Name: "bad", Raw: "!!!"}); err == nil {
		t.Error("bad base64 accepted")
	}
}

// TestImportNodeTable runs single-node graphs over one [1,3,8,8] input. The
// malformed nodes must be refused with an error (each used to panic with an
// index out of range); the Concat rows pin NCHW→NHWC axis mapping, where
// axis -1 is width, as axis 3 is.
func TestImportNodeTable(t *testing.T) {
	var inits []InitializerProto
	for name, shape := range map[string]tensor.Shape{"w": {4, 3, 3, 3}, "w2": {4, 3}} {
		ip, err := EncodeInitializer(name, tensor.New(tensor.Float32, shape))
		if err != nil {
			t.Fatal(err)
		}
		inits = append(inits, ip)
	}
	cases := []struct {
		name  string
		node  NodeProto
		want  tensor.Shape // output type, when the node is well-formed
		error string       // error substring, when it is not
	}{
		{"relu without input", NodeProto{OpType: "Relu", Input: []string{}, Output: []string{"y"}}, nil, "expects 1 input"},
		{"relu without output", NodeProto{OpType: "Relu", Input: []string{"x"}, Output: []string{}}, nil, "expects 1 output"},
		{"maxpool with one pad", NodeProto{OpType: "MaxPool", Input: []string{"x"}, Output: []string{"y"},
			Attribute: map[string]interface{}{"pads": []interface{}{0.0}}}, nil, "want 4 ints"},
		{"conv without weight", NodeProto{OpType: "Conv", Input: []string{"x"}, Output: []string{"y"}}, nil, "expects x, weight"},
		{"conv with rank-2 weight", NodeProto{OpType: "Conv", Input: []string{"x", "w2"}, Output: []string{"y"}}, nil, "want float32 OIHW"},
		{"conv weight from a value", NodeProto{OpType: "Conv", Input: []string{"x", "x"}, Output: []string{"y"}}, nil, "missing parameter"},
		{"gemm without weight", NodeProto{OpType: "Gemm", Input: []string{"x"}, Output: []string{"y"}}, nil, "expects x, weight"},
		{"add with one input", NodeProto{OpType: "Add", Input: []string{"x"}, Output: []string{"y"}}, nil, "expects 2 inputs"},
		{"batchnorm without stats", NodeProto{OpType: "BatchNormalization", Input: []string{"x"}, Output: []string{"y"}}, nil, "x + 4 params"},
		{"concat of nothing", NodeProto{OpType: "Concat", Input: nil, Output: []string{"y"}}, nil, "no inputs"},
		{"concat axis 4", NodeProto{OpType: "Concat", Input: []string{"x", "x"}, Output: []string{"y"},
			Attribute: map[string]interface{}{"axis": 4.0}}, nil, "out of range"},
		{"conv", NodeProto{OpType: "Conv", Input: []string{"x", "w"}, Output: []string{"y"}}, tensor.Shape{1, 6, 6, 4}, ""},
		{"concat axis -1", NodeProto{OpType: "Concat", Input: []string{"x", "x"}, Output: []string{"y"},
			Attribute: map[string]interface{}{"axis": -1.0}}, tensor.Shape{1, 8, 16, 3}, ""},
		{"concat axis 3", NodeProto{OpType: "Concat", Input: []string{"x", "x"}, Output: []string{"y"},
			Attribute: map[string]interface{}{"axis": 3.0}}, tensor.Shape{1, 8, 16, 3}, ""},
		{"concat axis 1", NodeProto{OpType: "Concat", Input: []string{"x", "x"}, Output: []string{"y"}},
			tensor.Shape{1, 8, 8, 6}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, err := Import(&ModelProto{Graph: GraphProto{
				Input:       []ValueInfoProto{{Name: "x", Shape: []int{1, 3, 8, 8}}},
				Node:        []NodeProto{c.node},
				Output:      []string{"y"},
				Initializer: inits,
			}})
			if c.error != "" {
				if err == nil || !strings.Contains(err.Error(), c.error) {
					t.Fatalf("error %v, want one containing %q", err, c.error)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if ret := m.Main().CheckedType().(*relay.FuncType).Ret; !ret.Same(relay.TType(tensor.Float32, c.want...)) {
				t.Errorf("output %s, want %s", ret, c.want)
			}
		})
	}
}
