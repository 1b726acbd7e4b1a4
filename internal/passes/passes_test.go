package passes

import (
	"errors"
	"testing"

	"repro/internal/relay"
	"repro/internal/tensor"
)

func randConst(shape tensor.Shape, seed uint64) *relay.Constant {
	t := tensor.New(tensor.Float32, shape)
	t.FillUniform(tensor.NewRNG(seed), -1, 1)
	return relay.Const(t)
}

// convBNReLU builds data -> conv -> batch_norm -> relu -> global pool.
func convBNReLU() *relay.Module {
	data := relay.NewVar("data", relay.TType(tensor.Float32, 1, 8, 8, 3))
	conv := relay.NewCall(relay.OpConv2D,
		[]relay.Expr{data, randConst(tensor.Shape{4, 3, 3, 3}, 1)},
		relay.Attrs{"strides": []int{1, 1}, "padding": []int{1, 1}})
	varT := tensor.New(tensor.Float32, tensor.Shape{4})
	varT.FillUniform(tensor.NewRNG(5), 0.5, 1.5)
	bn := relay.NewCall(relay.OpBatchNorm, []relay.Expr{
		conv, randConst(tensor.Shape{4}, 2), randConst(tensor.Shape{4}, 3),
		randConst(tensor.Shape{4}, 4), relay.Const(varT),
	}, relay.Attrs{"epsilon": 1e-5})
	act := relay.NewCall(relay.OpReLU, []relay.Expr{bn}, nil)
	pool := relay.NewCall(relay.OpGlobalAvgPool, []relay.Expr{act}, nil)
	return relay.NewModule(relay.NewFunc([]*relay.Var{data}, pool))
}

func TestSimplifyInferenceFoldsBatchNorm(t *testing.T) {
	m := convBNReLU()
	out, err := Sequential(m, NewContext(3), SimplifyInference())
	if err != nil {
		t.Fatal(err)
	}
	if n := relay.CountOps(out.Main(), "nn.batch_norm"); n != 0 {
		t.Errorf("batch_norm survived SimplifyInference (%d left)", n)
	}
	if n := relay.CountOps(out.Main(), "multiply"); n != 1 {
		t.Errorf("expected 1 multiply after folding, got %d", n)
	}
}

func TestSimplifyInferenceDropsDropout(t *testing.T) {
	data := relay.NewVar("d", relay.TType(tensor.Float32, 2, 2))
	drop := relay.NewCall(relay.OpDropout, []relay.Expr{data}, relay.Attrs{"rate": 0.5})
	m := relay.NewModule(relay.NewFunc([]*relay.Var{data}, drop))
	out, err := Sequential(m, NewContext(3), SimplifyInference())
	if err != nil {
		t.Fatal(err)
	}
	if relay.CountOps(out.Main()) != 0 {
		t.Error("dropout not removed")
	}
}

func TestFoldConstant(t *testing.T) {
	// relu(const) + var should fold the relu into a constant.
	c := randConst(tensor.Shape{4}, 7)
	folded := relay.NewCall(relay.OpReLU, []relay.Expr{c}, nil)
	v := relay.NewVar("x", relay.TType(tensor.Float32, 4))
	sum := relay.NewCall(relay.OpAdd, []relay.Expr{folded, v}, nil)
	m := relay.NewModule(relay.NewFunc([]*relay.Var{v}, sum))
	out, err := Sequential(m, NewContext(3), FoldConstant())
	if err != nil {
		t.Fatal(err)
	}
	if n := relay.CountOps(out.Main(), "nn.relu"); n != 0 {
		t.Error("relu over constant not folded")
	}
	if n := relay.CountOps(out.Main(), "add"); n != 1 {
		t.Error("data-dependent add must survive")
	}
}

func TestFoldConstantSkippedAtLowOptLevel(t *testing.T) {
	c := randConst(tensor.Shape{4}, 7)
	folded := relay.NewCall(relay.OpReLU, []relay.Expr{c}, nil)
	m := relay.NewModule(relay.NewFunc(nil, folded))
	out, err := Sequential(m, NewContext(1), FoldConstant()) // MinOptLevel 2
	if err != nil {
		t.Fatal(err)
	}
	if n := relay.CountOps(out.Main(), "nn.relu"); n != 1 {
		t.Error("FoldConstant must not run at opt level 1")
	}
}

func TestFuseOpsConvBiasReLU(t *testing.T) {
	data := relay.NewVar("data", relay.TType(tensor.Float32, 1, 8, 8, 3))
	conv := relay.NewCall(relay.OpConv2D,
		[]relay.Expr{data, randConst(tensor.Shape{4, 3, 3, 3}, 1)},
		relay.Attrs{"strides": []int{1, 1}, "padding": []int{1, 1}})
	biased := relay.NewCall(relay.OpBiasAdd, []relay.Expr{conv, randConst(tensor.Shape{4}, 2)}, nil)
	act := relay.NewCall(relay.OpReLU, []relay.Expr{biased}, nil)
	m := relay.NewModule(relay.NewFunc([]*relay.Var{data}, act))
	out, err := Sequential(m, NewContext(3), FuseOps())
	if err != nil {
		t.Fatal(err)
	}
	// The whole chain should be one primitive call now.
	body := out.Main().Body
	call, ok := body.(*relay.Call)
	if !ok || call.Fn == nil {
		t.Fatalf("body is %T, want call to primitive function", body)
	}
	fn := call.Fn.(*relay.Function)
	if fn.Attr(relay.FnAttrPrimitive) == "" {
		t.Error("fused function missing Primitive attr")
	}
	if n := relay.CountOps(fn.Body); n != 3 {
		t.Errorf("primitive body has %d ops, want 3", n)
	}
	// Data is the only non-constant external input.
	if len(fn.Params) != 1 {
		t.Errorf("primitive has %d params, want 1 (weights stay inline)", len(fn.Params))
	}
}

func TestFuseOpsStopsAtSharedValues(t *testing.T) {
	// relu output consumed twice: cannot fuse into either consumer.
	data := relay.NewVar("d", relay.TType(tensor.Float32, 4))
	act := relay.NewCall(relay.OpReLU, []relay.Expr{data}, nil)
	s := relay.NewCall(relay.OpSigmoid, []relay.Expr{act}, nil)
	tt := relay.NewCall(relay.OpTanh, []relay.Expr{act}, nil)
	sum := relay.NewCall(relay.OpAdd, []relay.Expr{s, tt}, nil)
	m := relay.NewModule(relay.NewFunc([]*relay.Var{data}, sum))
	out, err := Sequential(m, NewContext(3), FuseOps())
	if err != nil {
		t.Fatal(err)
	}
	// relu must not be duplicated into both branches: count relu ops overall.
	total := 0
	relay.PostOrderVisit(out.Main().Body, func(e relay.Expr) {
		if c, ok := e.(*relay.Call); ok && c.Op != nil && c.Op.Name == "nn.relu" {
			total++
		}
		if c, ok := e.(*relay.Call); ok && c.Fn != nil {
			relay.PostOrderVisit(c.Fn, func(inner relay.Expr) {
				if ic, ok := inner.(*relay.Call); ok && ic.Op != nil && ic.Op.Name == "nn.relu" {
					total++
				}
			})
		}
	})
	if total != 1 {
		t.Errorf("relu appears %d times after fusion, want exactly 1", total)
	}
}

func TestFuseOpsDoesNotMergeTwoHeavyOps(t *testing.T) {
	data := relay.NewVar("data", relay.TType(tensor.Float32, 1, 8, 8, 3))
	conv1 := relay.NewCall(relay.OpConv2D,
		[]relay.Expr{data, randConst(tensor.Shape{4, 3, 3, 3}, 1)},
		relay.Attrs{"padding": []int{1, 1}})
	conv2 := relay.NewCall(relay.OpConv2D,
		[]relay.Expr{conv1, randConst(tensor.Shape{4, 3, 3, 4}, 2)},
		relay.Attrs{"padding": []int{1, 1}})
	m := relay.NewModule(relay.NewFunc([]*relay.Var{data}, conv2))
	out, err := Sequential(m, NewContext(3), FuseOps())
	if err != nil {
		t.Fatal(err)
	}
	// Both convolutions must remain separate kernels (no primitive containing 2 convs).
	relay.PostOrderVisit(out.Main().Body, func(e relay.Expr) {
		if c, ok := e.(*relay.Call); ok && c.Fn != nil {
			fn := c.Fn.(*relay.Function)
			if relay.CountOps(fn.Body, "nn.conv2d") > 1 {
				t.Error("two convolutions fused into one primitive")
			}
		}
	})
}

// supportAll marks every op except the named ones as supported.
func supportAllBut(names ...string) Supported {
	deny := map[string]bool{}
	for _, n := range names {
		deny[n] = true
	}
	return func(c *relay.Call) bool { return !deny[c.Op.Name] }
}

func TestPartitionLiftsSingleRegion(t *testing.T) {
	m := convBNReLU()
	m, err := Sequential(m, NewContext(3), SimplifyInference(), FoldConstant())
	if err != nil {
		t.Fatal(err)
	}
	out, err := PartitionForCompiler(m, "ext", supportAllBut(), DefaultPartitionOptions())
	if err != nil {
		t.Fatal(err)
	}
	ext := out.ExternalFuncs("ext")
	if len(ext) != 1 {
		t.Fatalf("expected 1 external region, got %d: %v", len(ext), ext)
	}
	// Main body should be a single call to the region.
	call, ok := out.Main().Body.(*relay.Call)
	if !ok || call.Fn == nil {
		t.Fatalf("main body is %T, want external call", out.Main().Body)
	}
	fn := call.Fn.(*relay.Function)
	if fn.Attr(relay.FnAttrCompiler) != "ext" {
		t.Error("missing Compiler attr")
	}
	if fn.Attr(relay.FnAttrGlobalSymbol) == "" {
		t.Error("missing global_symbol attr")
	}
}

func TestPartitionSplitsAroundUnsupported(t *testing.T) {
	// conv -> leaky_relu (unsupported) -> conv => two regions.
	data := relay.NewVar("data", relay.TType(tensor.Float32, 1, 8, 8, 3))
	conv1 := relay.NewCall(relay.OpConv2D,
		[]relay.Expr{data, randConst(tensor.Shape{4, 3, 3, 3}, 1)},
		relay.Attrs{"padding": []int{1, 1}})
	lk := relay.NewCall(relay.OpLeakyReLU, []relay.Expr{conv1}, relay.Attrs{"alpha": 0.1})
	conv2 := relay.NewCall(relay.OpConv2D,
		[]relay.Expr{lk, randConst(tensor.Shape{4, 3, 3, 4}, 2)},
		relay.Attrs{"padding": []int{1, 1}})
	m := relay.NewModule(relay.NewFunc([]*relay.Var{data}, conv2))
	out, err := PartitionForCompiler(m, "ext", supportAllBut("nn.leaky_relu"), DefaultPartitionOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(out.ExternalFuncs("ext")); got != 2 {
		t.Errorf("expected 2 regions around unsupported op, got %d", got)
	}
	if n := relay.CountOps(out.Main().Body, "nn.leaky_relu"); n != 1 {
		t.Errorf("leaky_relu must stay in main, found %d", n)
	}
}

func TestPartitionNoMergeYieldsPerOpRegions(t *testing.T) {
	m := convBNReLU()
	m, err := Sequential(m, NewContext(3), SimplifyInference(), FoldConstant())
	if err != nil {
		t.Fatal(err)
	}
	nOps := relay.CountOps(m.Main().Body)
	out, err := PartitionForCompiler(m, "ext", supportAllBut(),
		PartitionOptions{MergeRegions: false, MinRegionSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(out.ExternalFuncs("ext")); got != nOps {
		t.Errorf("without merging, want %d single-op regions, got %d", nOps, got)
	}
}

func TestPartitionConvexityNoCycle(t *testing.T) {
	// Diamond where one branch is unsupported:
	//   a = relu(x) [sup] ; b = leaky(a) [unsup] ; c = sigmoid(a) [sup]
	//   d = add(b, c) [sup]
	// Merging {a, c, d} would create a cycle through b; the partitioner must
	// keep d separate from (or c out of) a region that feeds b.
	x := relay.NewVar("x", relay.TType(tensor.Float32, 4))
	a := relay.NewCall(relay.OpReLU, []relay.Expr{x}, nil)
	b := relay.NewCall(relay.OpLeakyReLU, []relay.Expr{a}, relay.Attrs{"alpha": 0.1})
	c := relay.NewCall(relay.OpSigmoid, []relay.Expr{a}, nil)
	d := relay.NewCall(relay.OpAdd, []relay.Expr{b, c}, nil)
	m := relay.NewModule(relay.NewFunc([]*relay.Var{x}, d))
	out, err := PartitionForCompiler(m, "ext", supportAllBut("nn.leaky_relu"), DefaultPartitionOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Type inference on the result already proves acyclicity (a cycle would
	// make the rewrite non-constructible); additionally the unsupported op
	// must remain in main.
	if n := relay.CountOps(out.Main().Body, "nn.leaky_relu"); n != 1 {
		t.Errorf("leaky_relu not in main after partition")
	}
}

func TestPartitionMutuallyDependentRegionsIsAnError(t *testing.T) {
	// Two regions, each convex, each consuming an output of the other:
	//   A = {x, y1, y}   B = {p, q, r}   h, h2 unsupported
	//   x → p (B takes x)   q → y1 (A takes q)
	// The host branches x → h → p and q → h2 → y keep A and B from merging.
	// Neither lifted function could be called first; lifting used to recurse
	// without end here and must report the cycle instead.
	v := relay.NewVar("v", relay.TType(tensor.Float32, 4))
	x := relay.NewCall(relay.OpReLU, []relay.Expr{v}, nil)
	h := relay.NewCall(relay.OpLeakyReLU, []relay.Expr{x}, relay.Attrs{"alpha": 0.1})
	p := relay.NewCall(relay.OpAdd, []relay.Expr{x, h}, nil)
	q := relay.NewCall(relay.OpTanh, []relay.Expr{v}, nil)
	r := relay.NewCall(relay.OpAdd, []relay.Expr{p, q}, nil)
	y1 := relay.NewCall(relay.OpAdd, []relay.Expr{x, q}, nil)
	h2 := relay.NewCall(relay.OpLeakyReLU, []relay.Expr{q}, relay.Attrs{"alpha": 0.1})
	y := relay.NewCall(relay.OpAdd, []relay.Expr{y1, h2}, nil)
	m := relay.NewModule(relay.NewFunc([]*relay.Var{v}, relay.NewTuple([]relay.Expr{r, y})))
	_, err := PartitionForCompiler(m, "ext", supportAllBut("nn.leaky_relu"), DefaultPartitionOptions())
	if !errors.Is(err, errRegionCycle) {
		t.Fatalf("PartitionForCompiler = %v, want errRegionCycle", err)
	}
	// Without merging every region is one call and nothing can cycle.
	if _, err := PartitionForCompiler(m, "ext", supportAllBut("nn.leaky_relu"),
		PartitionOptions{MergeRegions: false, MinRegionSize: 1}); err != nil {
		t.Fatalf("unmerged partition: %v", err)
	}
}

func TestPartitionMinRegionSize(t *testing.T) {
	// A single supported op between unsupported ones: MinRegionSize=2 should
	// leave it on the host.
	x := relay.NewVar("x", relay.TType(tensor.Float32, 4))
	a := relay.NewCall(relay.OpLeakyReLU, []relay.Expr{x}, relay.Attrs{"alpha": 0.1})
	b := relay.NewCall(relay.OpReLU, []relay.Expr{a}, nil)
	c := relay.NewCall(relay.OpLeakyReLU, []relay.Expr{b}, relay.Attrs{"alpha": 0.1})
	m := relay.NewModule(relay.NewFunc([]*relay.Var{x}, c))
	out, err := PartitionForCompiler(m, "ext", supportAllBut("nn.leaky_relu"),
		PartitionOptions{MergeRegions: true, MinRegionSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(out.ExternalFuncs("ext")); got != 0 {
		t.Errorf("region below min size must not be lifted, got %d regions", got)
	}
}

func TestPartitionMultiOutputRegion(t *testing.T) {
	// Region producing two values consumed by an unsupported op.
	x := relay.NewVar("x", relay.TType(tensor.Float32, 4))
	a := relay.NewCall(relay.OpReLU, []relay.Expr{x}, nil)
	b := relay.NewCall(relay.OpSigmoid, []relay.Expr{a}, nil)
	c := relay.NewCall(relay.OpTanh, []relay.Expr{a}, nil)
	// divide unsupported: consumes both region outputs.
	d := relay.NewCall(relay.OpDivide, []relay.Expr{b, c}, nil)
	m := relay.NewModule(relay.NewFunc([]*relay.Var{x}, d))
	out, err := PartitionForCompiler(m, "ext", supportAllBut("divide"), DefaultPartitionOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(out.ExternalFuncs("ext")); got != 1 {
		t.Fatalf("want 1 multi-output region, got %d", got)
	}
	name := out.ExternalFuncs("ext")[0]
	fn, _ := out.Get(name)
	if _, isTuple := fn.Body.(*relay.Tuple); !isTuple {
		t.Errorf("multi-output region body should be a tuple, got %T", fn.Body)
	}
}

func TestCSEMergesDuplicateCalls(t *testing.T) {
	// Two structurally identical relu calls over the same input.
	x := relay.NewVar("x", relay.TType(tensor.Float32, 4))
	a := relay.NewCall(relay.OpReLU, []relay.Expr{x}, nil)
	b := relay.NewCall(relay.OpReLU, []relay.Expr{x}, nil)
	sum := relay.NewCall(relay.OpAdd, []relay.Expr{a, b}, nil)
	m := relay.NewModule(relay.NewFunc([]*relay.Var{x}, sum))
	out, err := Sequential(m, NewContext(3), EliminateCommonSubexpr())
	if err != nil {
		t.Fatal(err)
	}
	body := out.Main().Body.(*relay.Call)
	if body.Args[0] != body.Args[1] {
		t.Error("identical relu calls not merged")
	}
	if n := relay.CountOps(out.Main().Body, "nn.relu"); n != 1 {
		t.Errorf("relu count %d after CSE", n)
	}
}

func TestCSERespectsAttrs(t *testing.T) {
	// Same op, different attrs: must NOT merge.
	x := relay.NewVar("x", relay.TType(tensor.Float32, 4))
	a := relay.NewCall(relay.OpClip, []relay.Expr{x}, relay.Attrs{"a_min": 0.0, "a_max": 6.0})
	b := relay.NewCall(relay.OpClip, []relay.Expr{x}, relay.Attrs{"a_min": 0.0, "a_max": 1.0})
	sum := relay.NewCall(relay.OpAdd, []relay.Expr{a, b}, nil)
	m := relay.NewModule(relay.NewFunc([]*relay.Var{x}, sum))
	out, err := Sequential(m, NewContext(3), EliminateCommonSubexpr())
	if err != nil {
		t.Fatal(err)
	}
	if n := relay.CountOps(out.Main().Body, "clip"); n != 2 {
		t.Errorf("clip count %d, different attrs must not merge", n)
	}
}

func TestCSEChains(t *testing.T) {
	// Duplicate whole chains: conv(w)+relu twice merges into one.
	x := relay.NewVar("x", relay.TType(tensor.Float32, 1, 8, 8, 3))
	w := randConst(tensor.Shape{4, 3, 3, 3}, 9)
	mk := func() relay.Expr {
		conv := relay.NewCall(relay.OpConv2D, []relay.Expr{x, w}, relay.Attrs{"padding": []int{1, 1}})
		return relay.NewCall(relay.OpReLU, []relay.Expr{conv}, nil)
	}
	sum := relay.NewCall(relay.OpAdd, []relay.Expr{mk(), mk()}, nil)
	m := relay.NewModule(relay.NewFunc([]*relay.Var{x}, sum))
	out, err := Sequential(m, NewContext(3), EliminateCommonSubexpr())
	if err != nil {
		t.Fatal(err)
	}
	if n := relay.CountOps(out.Main().Body, "nn.conv2d"); n != 1 {
		t.Errorf("conv count %d after chain CSE", n)
	}
}
