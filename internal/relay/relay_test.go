package relay

import (
	"strings"
	"testing"

	"repro/internal/race"
	"repro/internal/tensor"
)

// buildSmallCNN constructs data -> conv2d -> bias_add -> relu -> max_pool.
func buildSmallCNN(t *testing.T) (*Function, *Var) {
	t.Helper()
	data := NewVar("data", TType(tensor.Float32, 1, 8, 8, 3))
	w := Const(tensor.New(tensor.Float32, tensor.Shape{4, 3, 3, 3}))
	b := Const(tensor.New(tensor.Float32, tensor.Shape{4}))
	conv := NewCall(OpConv2D, []Expr{data, w}, Attrs{"strides": []int{1, 1}, "padding": []int{1, 1}})
	biased := NewCall(OpBiasAdd, []Expr{conv, b}, nil)
	act := NewCall(OpReLU, []Expr{biased}, nil)
	pool := NewCall(OpMaxPool2D, []Expr{act}, Attrs{"pool_size": []int{2, 2}, "strides": []int{2, 2}})
	return NewFunc([]*Var{data}, pool), data
}

func TestInferTypesSmallCNN(t *testing.T) {
	fn, _ := buildSmallCNN(t)
	ty, err := InferTypes(fn)
	if err != nil {
		t.Fatal(err)
	}
	ft := ty.(*FuncType)
	want := TType(tensor.Float32, 1, 4, 4, 4)
	if !ft.Ret.Same(want) {
		t.Errorf("result type %s, want %s", ft.Ret, want)
	}
}

func TestConvOutDim(t *testing.T) {
	cases := []struct {
		in, k, s, pb, pa, d, want int
		err                       bool
	}{
		{8, 3, 1, 1, 1, 1, 8, false},
		{8, 3, 2, 0, 0, 1, 3, false},
		{224, 7, 2, 3, 3, 1, 112, false},
		{5, 3, 1, 0, 0, 2, 1, false}, // dilated: effective kernel 5
		{2, 5, 1, 0, 0, 1, 0, true},
		{8, 3, 0, 0, 0, 1, 0, true},
	}
	for i, c := range cases {
		got, err := ConvOutDim(c.in, c.k, c.s, c.pb, c.pa, c.d)
		if c.err {
			if err == nil {
				t.Errorf("case %d: want error", i)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("case %d: got %d, %v; want %d", i, got, err, c.want)
		}
	}
}

func TestInferConv2DErrors(t *testing.T) {
	data := TType(tensor.Float32, 1, 8, 8, 3)
	cases := []struct {
		name   string
		weight *TensorType
		attrs  Attrs
	}{
		{"bad input channels", TType(tensor.Float32, 4, 3, 3, 5), Attrs{}},
		{"bad groups divisor", TType(tensor.Float32, 4, 3, 3, 3), Attrs{"groups": 2}},
		{"kernel too large", TType(tensor.Float32, 4, 9, 9, 3), Attrs{}},
		{"rank", TType(tensor.Float32, 4, 3, 3), Attrs{}},
	}
	for _, c := range cases {
		if _, err := inferConv2D([]Type{data, c.weight}, c.attrs); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestDepthwiseConvTyping(t *testing.T) {
	// groups == channels, OHWI weight with 1 input channel per group.
	data := TType(tensor.Float32, 1, 16, 16, 8)
	weight := TType(tensor.Float32, 8, 3, 3, 1)
	ty, err := inferConv2D([]Type{data, weight}, Attrs{"groups": 8, "padding": []int{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !ty.Same(TType(tensor.Float32, 1, 16, 16, 8)) {
		t.Errorf("depthwise output type %s", ty)
	}
}

func TestBroadcastShapes(t *testing.T) {
	cases := []struct {
		a, b, want tensor.Shape
		err        bool
	}{
		{tensor.Shape{2, 3}, tensor.Shape{2, 3}, tensor.Shape{2, 3}, false},
		{tensor.Shape{2, 3}, tensor.Shape{3}, tensor.Shape{2, 3}, false},
		{tensor.Shape{2, 1, 4}, tensor.Shape{3, 1}, tensor.Shape{2, 3, 4}, false},
		{tensor.Shape{}, tensor.Shape{5}, tensor.Shape{5}, false},
		{tensor.Shape{2}, tensor.Shape{3}, nil, true},
	}
	for i, c := range cases {
		got, err := BroadcastShapes(c.a, c.b)
		if c.err != (err != nil) {
			t.Errorf("case %d: err = %v", i, err)
			continue
		}
		if !c.err && !got.Equal(c.want) {
			t.Errorf("case %d: got %s want %s", i, got, c.want)
		}
	}
}

func TestReshapeInference(t *testing.T) {
	data := TType(tensor.Float32, 2, 3, 4)
	ty, err := inferReshape([]Type{data}, Attrs{"newshape": []int{2, -1}})
	if err != nil {
		t.Fatal(err)
	}
	if !ty.Same(TType(tensor.Float32, 2, 12)) {
		t.Errorf("reshape type %s", ty)
	}
	if _, err := inferReshape([]Type{data}, Attrs{"newshape": []int{5, 5}}); err == nil {
		t.Error("bad reshape accepted")
	}
	if _, err := inferReshape([]Type{data}, Attrs{"newshape": []int{-1, -1}}); err == nil {
		t.Error("double -1 accepted")
	}
}

func TestConcatenateInference(t *testing.T) {
	a := TType(tensor.Float32, 1, 4, 4, 8)
	b := TType(tensor.Float32, 1, 4, 4, 16)
	tup := &TupleType{Fields: []Type{a, b}}
	ty, err := inferConcatenate([]Type{tup}, Attrs{"axis": 3})
	if err != nil {
		t.Fatal(err)
	}
	if !ty.Same(TType(tensor.Float32, 1, 4, 4, 24)) {
		t.Errorf("concat type %s", ty)
	}
	// Off-axis mismatch must fail.
	c := TType(tensor.Float32, 1, 5, 4, 8)
	if _, err := inferConcatenate([]Type{&TupleType{Fields: []Type{a, c}}}, Attrs{"axis": 3}); err == nil {
		t.Error("off-axis mismatch accepted")
	}
}

func TestQuantPropagationThroughPoolAndReshape(t *testing.T) {
	// The §3.3 rule: non-QNN ops must carry the input's quant params to the
	// output type.
	q := tensor.QuantParams{Scale: 0.05, ZeroPoint: 128}
	data := QTType(tensor.UInt8, q, 1, 8, 8, 4)
	pool, err := pool2DInfer("nn.max_pool2d")([]Type{data}, Attrs{"pool_size": []int{2, 2}, "strides": []int{2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	pt := pool.(*TensorType)
	if pt.Quant == nil || *pt.Quant != q {
		t.Errorf("max_pool2d dropped quant params: %v", pt.Quant)
	}
	rs, err := inferReshape([]Type{pt}, Attrs{"newshape": []int{1, -1}})
	if err != nil {
		t.Fatal(err)
	}
	if rs.(*TensorType).Quant == nil || *rs.(*TensorType).Quant != q {
		t.Error("reshape dropped quant params")
	}
}

func TestQnnConv2DInference(t *testing.T) {
	q := tensor.QuantParams{Scale: 0.05, ZeroPoint: 128}
	wq := tensor.QuantParams{Scale: 0.01, ZeroPoint: 0}
	data := QTType(tensor.UInt8, q, 1, 8, 8, 3)
	weight := QTType(tensor.UInt8, wq, 4, 3, 3, 3)
	ty, err := inferQnnConv2D([]Type{data, weight}, Attrs{
		"strides": []int{1, 1}, "padding": []int{1, 1},
		"input_scale": 0.05, "input_zero_point": 128,
		"kernel_scale": 0.01, "kernel_zero_point": 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	tt := ty.(*TensorType)
	if tt.DType != tensor.Int32 {
		t.Errorf("qnn.conv2d accumulator dtype %s, want int32", tt.DType)
	}
	if tt.Quant == nil || tt.Quant.Scale != 0.05*0.01 || tt.Quant.ZeroPoint != 0 {
		t.Errorf("accumulator quant %v, want scale=5e-4 zp=0", tt.Quant)
	}
	// Missing scales must fail.
	if _, err := inferQnnConv2D([]Type{data, weight}, Attrs{}); err == nil {
		t.Error("qnn.conv2d without scales accepted")
	}
}

// TestQnnZeroPointRange: qnn.conv2d, qnn.dense and their fused forms take an
// input_zero_point and a kernel_zero_point of the data and weight dtype and
// refuse any other — the first row is one the relations accepted before the
// rule. Both extremes of both 8-bit dtypes type-check.
func TestQnnZeroPointRange(t *testing.T) {
	q := tensor.QuantParams{Scale: 0.05}
	ops := []struct {
		name         string
		infer        func([]Type, Attrs) (Type, error)
		data, weight []int
	}{
		{"qnn.conv2d", inferQnnConv2D, []int{1, 6, 6, 3}, []int{4, 3, 3, 3}},
		{"qnn.conv2d_fused", inferQnnConv2DFused, []int{1, 6, 6, 3}, []int{4, 3, 3, 3}},
		{"qnn.dense", inferQnnDense, []int{2, 5}, []int{3, 5}},
		{"qnn.dense_fused", inferQnnDenseFused, []int{2, 5}, []int{3, 5}},
	}
	for _, row := range []struct {
		dt        tensor.DType
		zpIn, zpK int
		ok        bool
	}{
		{tensor.UInt8, 300, 0, false},
		{tensor.UInt8, 128, 256, false},
		{tensor.UInt8, -1, 0, false},
		{tensor.Int8, 128, 0, false},
		{tensor.Int8, 0, -129, false},
		{tensor.UInt8, 0, 255, true},
		{tensor.UInt8, 255, 0, true},
		{tensor.Int8, -128, 127, true},
		{tensor.Int8, 127, -128, true},
	} {
		for _, op := range ops {
			attrs := Attrs{
				"input_scale": 0.05, "kernel_scale": 0.01,
				"input_zero_point": row.zpIn, "kernel_zero_point": row.zpK,
				"requant_input_scale": 5e-4, "requant_output_scale": 0.1,
			}
			_, err := op.infer([]Type{QTType(row.dt, q, op.data...), QTType(row.dt, q, op.weight...)}, attrs)
			if row.ok && err != nil {
				t.Errorf("%s %s zero points %d/%d refused: %v", op.name, row.dt, row.zpIn, row.zpK, err)
			}
			if !row.ok && (err == nil || !strings.Contains(err.Error(), "zero_point")) {
				t.Errorf("%s %s zero points %d/%d: err = %v, want a zero-point refusal", op.name, row.dt, row.zpIn, row.zpK, err)
			}
		}
	}
}

func TestQnnRequantizeInference(t *testing.T) {
	acc := &TensorType{Shape: tensor.Shape{1, 4}, DType: tensor.Int32,
		Quant: &tensor.QuantParams{Scale: 5e-4}}
	ty, err := inferQnnRequantize([]Type{acc}, Attrs{
		"input_scale": 5e-4, "output_scale": 0.1, "output_zero_point": 100, "out_dtype": "uint8",
	})
	if err != nil {
		t.Fatal(err)
	}
	tt := ty.(*TensorType)
	if tt.DType != tensor.UInt8 || tt.Quant.Scale != 0.1 || tt.Quant.ZeroPoint != 100 {
		t.Errorf("requantize output type %s", tt)
	}
}

func TestPostOrderVisitOrder(t *testing.T) {
	fn, _ := buildSmallCNN(t)
	var order []string
	PostOrderVisit(fn, func(e Expr) {
		if c, ok := e.(*Call); ok {
			order = append(order, c.OpName())
		}
	})
	want := []string{"nn.conv2d", "nn.bias_add", "nn.relu", "nn.max_pool2d"}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Errorf("visit order %v, want %v", order, want)
	}
}

func TestPostOrderVisitSharedNodesOnce(t *testing.T) {
	x := NewVar("x", TType(tensor.Float32, 2))
	shared := NewCall(OpReLU, []Expr{x}, nil)
	sum := NewCall(OpAdd, []Expr{shared, shared}, nil)
	count := 0
	PostOrderVisit(sum, func(e Expr) {
		if c, ok := e.(*Call); ok && c.Op == OpReLU {
			count++
		}
	})
	if count != 1 {
		t.Errorf("shared node visited %d times, want 1", count)
	}
}

func TestRewritePreservesSharing(t *testing.T) {
	x := NewVar("x", TType(tensor.Float32, 2))
	shared := NewCall(OpSigmoid, []Expr{x}, nil)
	sum := NewCall(OpAdd, []Expr{shared, shared}, nil)
	// Rewrite sigmoid -> tanh.
	out := Rewrite(sum, func(e Expr) Expr {
		if c, ok := e.(*Call); ok && c.Op == OpSigmoid {
			return NewCall(OpTanh, c.Args, nil)
		}
		return e
	})
	oc := out.(*Call)
	if oc.Args[0] != oc.Args[1] {
		t.Error("rewrite broke sharing of identical sub-expressions")
	}
	if oc.Args[0].(*Call).Op != OpTanh {
		t.Error("rewrite did not apply")
	}
}

func TestRewriteIdentityReturnsSameNodes(t *testing.T) {
	fn, _ := buildSmallCNN(t)
	out := Rewrite(fn, func(e Expr) Expr { return e })
	if out != Expr(fn) {
		t.Error("identity rewrite should return the original node")
	}
}

// A rewrite copies an argument list only where a child changed: untouched
// subtrees come back pointer-identical, and an identity rewrite allocates
// the same few objects whatever the size of the graph.
func TestRewriteCopiesOnlyChangedArgs(t *testing.T) {
	x := NewVar("x", TType(tensor.Float32, 2))
	kept := NewCall(OpReLU, []Expr{x}, nil)
	sum := NewCall(OpAdd, []Expr{kept, NewCall(OpSigmoid, []Expr{x}, nil)}, nil)
	out := Rewrite(sum, func(e Expr) Expr {
		if c, ok := e.(*Call); ok && c.Op == OpSigmoid {
			return NewCall(OpTanh, c.Args, nil)
		}
		return e
	}).(*Call)
	if out == sum || out.Args[0] != Expr(kept) {
		t.Errorf("rewrite rebuilt an unchanged operand or kept a changed call")
	}
	if out.Args[1].(*Call).Op != OpTanh {
		t.Error("rewrite did not apply")
	}

	if race.Enabled {
		return // allocation counts are nondeterministic under the race detector
	}
	chain := func(n int) Expr {
		e := Expr(x)
		for i := 0; i < n; i++ {
			e = NewCall(OpReLU, []Expr{e}, nil)
		}
		return e
	}
	allocs := func(e Expr) float64 {
		return testing.AllocsPerRun(10, func() {
			if Rewrite(e, func(e Expr) Expr { return e }) != e {
				t.Fatal("identity rewrite returned a new graph")
			}
		})
	}
	if short, long := allocs(chain(10)), allocs(chain(400)); long != short {
		t.Errorf("identity rewrite allocates %v objects over 400 calls, %v over 10", long, short)
	}
}

func TestFreeVars(t *testing.T) {
	x := NewVar("x", TType(tensor.Float32, 2))
	y := NewVar("y", TType(tensor.Float32, 2))
	inner := NewFunc([]*Var{y}, NewCall(OpAdd, []Expr{x, y}, nil))
	call := NewFnCall(inner, []Expr{NewCall(OpReLU, []Expr{x}, nil)})
	fv := FreeVars(call)
	if len(fv) != 1 || fv[0] != x {
		t.Errorf("FreeVars = %v, want [x]", fv)
	}
}

func TestModuleBasics(t *testing.T) {
	fn, _ := buildSmallCNN(t)
	m := NewModule(fn)
	if m.Main() != fn {
		t.Error("Main() mismatch")
	}
	ext := fn.WithAttr(FnAttrCompiler, "nir").WithAttr(FnAttrGlobalSymbol, "nir_0")
	if err := m.Add("nir_0", ext); err != nil {
		t.Fatal(err)
	}
	if err := m.Add("nir_0", ext); err == nil {
		t.Error("duplicate Add accepted")
	}
	if got := m.ExternalFuncs("nir"); len(got) != 1 || got[0] != "nir_0" {
		t.Errorf("ExternalFuncs = %v", got)
	}
	names := m.Names()
	if names[0] != "main" || len(names) != 2 {
		t.Errorf("Names = %v", names)
	}
	if ext.Attr(FnAttrCompiler) != "nir" || fn.Attr(FnAttrCompiler) != "" {
		t.Error("WithAttr must not mutate the receiver")
	}
}

func TestPrintExprDeterministic(t *testing.T) {
	fn, _ := buildSmallCNN(t)
	a := PrintExpr(fn)
	b := PrintExpr(fn)
	if a != b {
		t.Error("printer nondeterministic")
	}
	for _, frag := range []string{"nn.conv2d", "nn.bias_add", "nn.relu", "nn.max_pool2d", "%data"} {
		if !strings.Contains(a, frag) {
			t.Errorf("printed form missing %q:\n%s", frag, a)
		}
	}
}

func TestOpRegistryLookup(t *testing.T) {
	if op, ok := LookupOp("nn.conv2d"); !ok || op != OpConv2D {
		t.Error("LookupOp nn.conv2d failed")
	}
	if _, ok := LookupOp("nn.nonexistent"); ok {
		t.Error("LookupOp invented an op")
	}
	names := OpNames()
	if len(names) < 30 {
		t.Errorf("expected a full op registry, got %d ops", len(names))
	}
}

func TestInferFnCall(t *testing.T) {
	// A call to a function value — the shape PartitionGraph produces.
	x := NewVar("x", TType(tensor.Float32, 1, 4))
	inner := NewFunc([]*Var{x}, NewCall(OpReLU, []Expr{x}, nil))
	outerArg := NewVar("d", TType(tensor.Float32, 1, 4))
	call := NewFnCall(inner, []Expr{outerArg})
	top := NewFunc([]*Var{outerArg}, call)
	ty, err := InferTypes(top)
	if err != nil {
		t.Fatal(err)
	}
	if !ty.(*FuncType).Ret.Same(TType(tensor.Float32, 1, 4)) {
		t.Errorf("fn-call type %s", ty)
	}
	// Arity mismatch must fail.
	bad := NewFunc([]*Var{outerArg}, NewFnCall(inner, []Expr{outerArg, outerArg}))
	if _, err := InferTypes(bad); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestTupleInference(t *testing.T) {
	x := NewVar("x", TType(tensor.Float32, 2))
	tup := NewTuple([]Expr{x, NewCall(OpReLU, []Expr{x}, nil)})
	proj := NewTupleGetItem(tup, 1)
	fn := NewFunc([]*Var{x}, proj)
	ty, err := InferTypes(fn)
	if err != nil {
		t.Fatal(err)
	}
	if !ty.(*FuncType).Ret.Same(TType(tensor.Float32, 2)) {
		t.Errorf("projection type %s", ty)
	}
	badProj := NewTupleGetItem(tup, 5)
	if _, err := InferTypes(NewFunc([]*Var{x}, badProj)); err == nil {
		t.Error("out-of-range projection accepted")
	}
}

func TestCountOps(t *testing.T) {
	fn, _ := buildSmallCNN(t)
	if n := CountOps(fn); n != 4 {
		t.Errorf("CountOps = %d, want 4", n)
	}
	if n := CountOps(fn, "nn.conv2d"); n != 1 {
		t.Errorf("CountOps(conv2d) = %d, want 1", n)
	}
}

func TestAttrsAccessors(t *testing.T) {
	a := Attrs{"i": 3, "f": 2.5, "b": true, "s": "hi", "v": []int{1, 2}, "p4": []int{1, 2, 3, 4}}
	if a.Int("i", 0) != 3 || a.Int("missing", 7) != 7 {
		t.Error("Int accessor")
	}
	if a.Float("f", 0) != 2.5 || a.Float("i", 0) != 3.0 {
		t.Error("Float accessor")
	}
	if !a.Bool("b", false) || a.Bool("missing", true) != true {
		t.Error("Bool accessor")
	}
	if a.Str("s", "") != "hi" {
		t.Error("Str accessor")
	}
	if h, w := a.IntPair("v", 0); h != 1 || w != 2 {
		t.Error("IntPair accessor")
	}
	if h, w := a.IntPair("i", 0); h != 3 || w != 3 {
		t.Error("IntPair scalar broadcast")
	}
	if p := a.Pad4("p4"); p != [4]int{1, 2, 3, 4} {
		t.Error("Pad4 accessor")
	}
	if p := a.Pad4("v"); p != [4]int{1, 2, 1, 2} {
		t.Error("Pad4 symmetric form")
	}
	c := a.Clone()
	c["v"].([]int)[0] = 99
	if a["v"].([]int)[0] != 1 {
		t.Error("Clone must deep-copy slices")
	}
}

func TestBatchNormInference(t *testing.T) {
	data := TType(tensor.Float32, 1, 4, 4, 8)
	vec := TType(tensor.Float32, 8)
	args := []Type{data, vec, vec, vec, vec}
	ty, err := inferBatchNorm(args, Attrs{"epsilon": 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	if !ty.Same(data) {
		t.Errorf("batch_norm type %s", ty)
	}
	bad := []Type{data, TType(tensor.Float32, 4), vec, vec, vec}
	if _, err := inferBatchNorm(bad, Attrs{}); err == nil {
		t.Error("channel mismatch accepted")
	}
}

func TestYoloOutputInference(t *testing.T) {
	data := TType(tensor.Float32, 1, 13, 13, 255)
	ty, err := inferYoloOutput([]Type{data}, Attrs{"anchors": 3, "classes": 80})
	if err != nil {
		t.Fatal(err)
	}
	if !ty.Same(data) {
		t.Errorf("yolo_output type %s", ty)
	}
	if _, err := inferYoloOutput([]Type{data}, Attrs{"anchors": 3, "classes": 10}); err == nil {
		t.Error("channel mismatch accepted")
	}
}

func TestPrintExprGolden(t *testing.T) {
	x := NewVar("x", TType(tensor.Float32, 1, 4))
	r := NewCall(OpReLU, []Expr{x}, nil)
	s := NewCall(OpSoftmax, []Expr{r}, nil)
	fn := NewFunc([]*Var{x}, s)
	got := PrintExpr(fn)
	want := "  %0 = nn.relu(%x)\n  %1 = nn.softmax(%0)\n  %1\n"
	if got != want {
		t.Errorf("printer output changed:\n got: %q\nwant: %q", got, want)
	}
}

func TestPrintModuleShowsExternalAttrs(t *testing.T) {
	x := NewVar("x", TType(tensor.Float32, 4))
	fn := NewFunc([]*Var{x}, NewCall(OpReLU, []Expr{x}, nil))
	ext := fn.WithAttr(FnAttrCompiler, "nir").WithAttr(FnAttrGlobalSymbol, "nir_0")
	m := NewModule(fn)
	if err := m.Add("nir_0", ext); err != nil {
		t.Fatal(err)
	}
	out := PrintModule(m)
	if !strings.Contains(out, `Compiler="nir"`) || !strings.Contains(out, `global_symbol="nir_0"`) {
		t.Errorf("module print missing BYOC attrs:\n%s", out)
	}
}

func TestToDOT(t *testing.T) {
	fn, _ := buildSmallCNN(t)
	m := NewModule(fn)
	ext := fn.WithAttr(FnAttrCompiler, "nir").WithAttr(FnAttrGlobalSymbol, "nir_0")
	if err := m.Add("nir_0", ext); err != nil {
		t.Fatal(err)
	}
	dot := ToDOT(m)
	for _, frag := range []string{"digraph module", "nn.conv2d", "Compiler=nir",
		"cluster_0", "cluster_1", "output"} {
		if !strings.Contains(dot, frag) {
			t.Errorf("DOT missing %q", frag)
		}
	}
	// Balanced braces (cheap structural sanity).
	if strings.Count(dot, "{") != strings.Count(dot, "}") {
		t.Error("unbalanced DOT braces")
	}
}
