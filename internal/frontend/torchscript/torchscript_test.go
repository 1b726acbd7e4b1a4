package torchscript

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/relay"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

// traceMiniPixBiS builds a scaled-down DeePixBiS-style network: conv/bn/relu
// stem, a dense-style concat block, a 1x1 conv to a pixel map with sigmoid,
// and a mean-pooled binary score — two outputs like the real model.
func traceMiniPixBiS(t *testing.T) (*Graph, StateDict) {
	t.Helper()
	tr := NewTracer(7)
	x := tr.Input(1, 3, 32, 32)
	c1 := tr.Conv2D(x, 8, 3, 1, 1, 1)
	b1 := tr.BatchNorm(c1)
	r1 := tr.ReLU(b1)
	// dense-block flavored concat
	c2 := tr.Conv2D(r1, 8, 3, 1, 1, 1)
	r2 := tr.ReLU(c2)
	cat := tr.Cat(1, r1, r2)
	p := tr.MaxPool2D(cat, 2, 2)
	// pixel-wise supervision head
	pix := tr.Conv2D(p, 1, 1, 1, 0, 1)
	pixmap := tr.Sigmoid(pix)
	score := tr.MeanSpatial(pixmap)
	tr.Output(pixmap, score)
	g, sd, err := tr.Trace()
	if err != nil {
		t.Fatal(err)
	}
	return g, sd
}

func TestTraceSerializationRoundTrip(t *testing.T) {
	g, sd := traceMiniPixBiS(t)
	blob, err := MarshalGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := UnmarshalGraph(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(g2.Nodes) != len(g.Nodes) || len(g2.Outputs) != 2 {
		t.Fatalf("graph changed: %d nodes, %d outputs", len(g2.Nodes), len(g2.Outputs))
	}
	var buf bytes.Buffer
	if err := sd.Save(&buf); err != nil {
		t.Fatal(err)
	}
	sd2, err := LoadStateDict(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(sd2) != len(sd) {
		t.Fatalf("state dict %d vs %d entries", len(sd2), len(sd))
	}
}

func TestFromTorchImports(t *testing.T) {
	g, sd := traceMiniPixBiS(t)
	m, err := FromTorch(g, sd)
	if err != nil {
		t.Fatal(err)
	}
	main := m.Main()
	// Input must be NHWC.
	it := main.Params[0].TypeAnnotation.(*relay.TensorType)
	if !it.Shape.Equal(tensor.Shape{1, 32, 32, 3}) {
		t.Errorf("imported input shape %s, want NHWC (1,32,32,3)", it.Shape)
	}
	if n := relay.CountOps(main, "nn.conv2d"); n != 3 {
		t.Errorf("conv count %d", n)
	}
	if n := relay.CountOps(main, "concatenate"); n != 1 {
		t.Errorf("concat count %d", n)
	}
	// Two outputs (pixel map + score).
	if _, ok := main.Body.(*relay.Tuple); !ok {
		t.Errorf("expected tuple output, got %T", main.Body)
	}
}

// TestImportMatchesPyTorchReference reproduces the paper's §4.1 check: run
// the original (reference NCHW) model and the TVM-imported model and compare.
func TestImportMatchesPyTorchReference(t *testing.T) {
	g, sd := traceMiniPixBiS(t)

	// Reference (PyTorch-side) execution, NCHW.
	inNCHW := tensor.New(tensor.Float32, tensor.Shape{1, 3, 32, 32})
	inNCHW.FillUniform(tensor.NewRNG(99), 0, 1)
	refOut, err := Reference(g, sd, map[string]*tensor.Tensor{g.Inputs[0].Name: inNCHW})
	if err != nil {
		t.Fatal(err)
	}

	// TVM-side execution, NHWC.
	m, err := FromTorch(g, sd)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := runtime.Build(m, runtime.BuildOptions{OptLevel: 3})
	if err != nil {
		t.Fatal(err)
	}
	gm := runtime.NewGraphModule(lib)
	gm.SetInput(gm.InputNames()[0], NCHWToNHWC(inNCHW))
	if err := gm.Run(); err != nil {
		t.Fatal(err)
	}
	gotPix := NHWCToNCHW(gm.MustOutput(0))
	wantPix := refOut[g.Outputs[0]]
	if !tensor.AllClose(gotPix, wantPix, 1e-3, 1e-3) {
		t.Errorf("pixel map differs from PyTorch reference, max %g", tensor.MaxAbsDiff(gotPix, wantPix))
	}
	gotScore := gm.MustOutput(1)
	wantScore := refOut[g.Outputs[1]]
	if !tensor.AllClose(gotScore, wantScore, 1e-3, 1e-3) {
		t.Errorf("score differs from PyTorch reference, max %g", tensor.MaxAbsDiff(gotScore, wantScore))
	}
}

// And the same equivalence must hold through the BYOC path.
func TestImportMatchesReferenceThroughBYOC(t *testing.T) {
	g, sd := traceMiniPixBiS(t)
	inNCHW := tensor.New(tensor.Float32, tensor.Shape{1, 3, 32, 32})
	inNCHW.FillUniform(tensor.NewRNG(123), 0, 1)
	refOut, err := Reference(g, sd, map[string]*tensor.Tensor{g.Inputs[0].Name: inNCHW})
	if err != nil {
		t.Fatal(err)
	}
	m, err := FromTorch(g, sd)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := runtime.Build(m, runtime.BuildOptions{OptLevel: 3, UseNIR: true})
	if err != nil {
		t.Fatal(err)
	}
	gm := runtime.NewGraphModule(lib)
	gm.SetInput(gm.InputNames()[0], NCHWToNHWC(inNCHW))
	if err := gm.Run(); err != nil {
		t.Fatal(err)
	}
	gotPix := NHWCToNCHW(gm.MustOutput(0))
	if !tensor.AllClose(gotPix, refOut[g.Outputs[0]], 1e-3, 1e-3) {
		t.Errorf("BYOC pixel map differs from reference, max %g",
			tensor.MaxAbsDiff(gotPix, refOut[g.Outputs[0]]))
	}
}

func TestLayoutConversions(t *testing.T) {
	x := tensor.New(tensor.Float32, tensor.Shape{2, 3, 4, 5})
	x.FillUniform(tensor.NewRNG(5), -1, 1)
	back := NHWCToNCHW(NCHWToNHWC(x))
	if !tensor.AllClose(x, back, 0, 0) {
		t.Error("layout conversion not invertible")
	}
}

func TestImportRejectsUnknownOp(t *testing.T) {
	g := &Graph{
		Inputs:  []ValueInfo{{Name: "x", Shape: []int{1, 3, 8, 8}, DType: "float32"}},
		Nodes:   []Node{{Op: "aten::frobnicate", Inputs: []string{"x"}, Output: "y"}},
		Outputs: []string{"y"},
	}
	if _, err := FromTorch(g, StateDict{}); err == nil {
		t.Error("unknown aten op accepted")
	}
}

func TestImportRejectsAmbiguousFlatten(t *testing.T) {
	tr := NewTracer(1)
	x := tr.Input(1, 3, 8, 8)
	f := tr.Flatten(x) // spatial 8x8: layout-ambiguous
	tr.Output(f)
	g, sd, err := tr.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromTorch(g, sd); err == nil {
		t.Error("layout-ambiguous flatten accepted")
	}
}

func TestLinearAfterGlobalPool(t *testing.T) {
	tr := NewTracer(2)
	x := tr.Input(1, 3, 8, 8)
	c := tr.Conv2D(x, 8, 3, 1, 1, 1)
	gp := tr.AdaptiveAvgPool2D1x1(c)
	fl := tr.Flatten(gp)
	fc := tr.Linear(fl, 5)
	sm := tr.Softmax(fc, 1)
	tr.Output(sm)
	g, sd, err := tr.Trace()
	if err != nil {
		t.Fatal(err)
	}
	m, err := FromTorch(g, sd)
	if err != nil {
		t.Fatal(err)
	}
	// Verify against reference.
	inNCHW := tensor.New(tensor.Float32, tensor.Shape{1, 3, 8, 8})
	inNCHW.FillUniform(tensor.NewRNG(77), -1, 1)
	refOut, err := Reference(g, sd, map[string]*tensor.Tensor{g.Inputs[0].Name: inNCHW})
	if err != nil {
		t.Fatal(err)
	}
	lib, err := runtime.Build(m, runtime.BuildOptions{OptLevel: 3})
	if err != nil {
		t.Fatal(err)
	}
	gm := runtime.NewGraphModule(lib)
	gm.SetInput(gm.InputNames()[0], NCHWToNHWC(inNCHW))
	if err := gm.Run(); err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(gm.MustOutput(0), refOut[g.Outputs[0]], 1e-4, 1e-4) {
		t.Errorf("linear head differs from reference, max %g",
			tensor.MaxAbsDiff(gm.MustOutput(0), refOut[g.Outputs[0]]))
	}
}

// TestImportNodeTable runs single-node graphs over one [1,3,8,8] input: the
// malformed nodes must be refused with an error (the no-input mean, flatten
// and softmax used to panic with an index out of range).
func TestImportNodeTable(t *testing.T) {
	sd := StateDict{"w": tensor.New(tensor.Float32, tensor.Shape{4, 3, 3, 3})}
	cases := []struct {
		name  string
		node  Node
		want  tensor.Shape // output type, when the node is well-formed
		error string       // error substring, when it is not
	}{
		{"mean without input", Node{Op: "aten::mean", Output: "y", Attrs: map[string]interface{}{"dim": []int{2, 3}}}, nil, "expects 1 input"},
		{"flatten without input", Node{Op: "aten::flatten", Output: "y"}, nil, "expects 1 input"},
		{"softmax without input", Node{Op: "aten::softmax", Output: "y"}, nil, "expects 1 input"},
		{"relu of two inputs", Node{Op: "aten::relu", Inputs: []string{"x", "x"}, Output: "y"}, nil, "expects 1 input"},
		{"linear without weight", Node{Op: "aten::linear", Inputs: []string{"x"}, Output: "y"}, nil, "expects x, weight"},
		{"conv with 3-int padding", Node{Op: "aten::conv2d", Inputs: []string{"x", "w"}, Output: "y",
			Attrs: map[string]interface{}{"padding": []int{1, 1, 1}}}, nil, "want 2 ints"},
		{"mean over dim 4", Node{Op: "aten::mean", Inputs: []string{"x"}, Output: "y",
			Attrs: map[string]interface{}{"dim": []int{4}}}, nil, "out of range"},
		{"conv", Node{Op: "aten::conv2d", Inputs: []string{"x", "w"}, Output: "y",
			Attrs: map[string]interface{}{"padding": []int{1, 1}}}, tensor.Shape{1, 8, 8, 4}, ""},
		{"cat dim -1", Node{Op: "aten::cat", Inputs: []string{"x", "x"}, Output: "y",
			Attrs: map[string]interface{}{"dim": -1}}, tensor.Shape{1, 8, 16, 3}, ""},
		{"mean over H, W", Node{Op: "aten::mean", Inputs: []string{"x"}, Output: "y",
			Attrs: map[string]interface{}{"dim": []int{-2, -1}}}, tensor.Shape{1, 3}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, err := FromTorch(&Graph{
				Inputs:  []ValueInfo{{Name: "x", Shape: []int{1, 3, 8, 8}}},
				Nodes:   []Node{c.node},
				Outputs: []string{"y"},
			}, sd)
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
