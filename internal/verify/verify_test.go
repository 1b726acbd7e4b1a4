package verify_test

// Mutation-style coverage for the IR verifier: start from well-formed relay
// modules and Neuron models, apply one deliberate corruption per test, and
// assert the verifier reports exactly the invariant class that was broken.

import (
	"strings"
	"testing"

	"repro/internal/neuron"
	"repro/internal/passes"
	"repro/internal/relay"
	"repro/internal/soc"
	"repro/internal/tensor"
	"repro/internal/verify"
)

// convModule builds conv2d→relu over a 1×8×8×4 input and type-checks it.
func convModule(t *testing.T) (*relay.Module, *relay.Var, *relay.Call) {
	t.Helper()
	x := relay.NewVar("x", relay.TType(tensor.Float32, 1, 8, 8, 4))
	w := relay.Const(tensor.New(tensor.Float32, tensor.Shape{8, 3, 3, 4}))
	conv := relay.NewCall(relay.OpConv2D, []relay.Expr{x, w}, relay.Attrs{"padding": []int{1, 1, 1, 1}})
	relu := relay.NewCall(relay.OpReLU, []relay.Expr{conv}, nil)
	m := relay.NewModule(relay.NewFunc([]*relay.Var{x}, relu))
	if err := relay.InferModule(m); err != nil {
		t.Fatalf("well-formed module failed inference: %v", err)
	}
	return m, x, conv
}

// regionModule builds a module with one partitioned region, as
// PartitionGraph would emit it: main calls @nir_0 whose body is relu(p0).
func regionModule(t *testing.T) (*relay.Module, *relay.Function) {
	t.Helper()
	x := relay.NewVar("x", relay.TType(tensor.Float32, 1, 16))
	p0 := relay.NewVar("p0", relay.TType(tensor.Float32, 1, 16))
	region := relay.NewFunc([]*relay.Var{p0}, relay.NewCall(relay.OpReLU, []relay.Expr{p0}, nil))
	region.FnAttrs[relay.FnAttrCompiler] = "nir"
	region.FnAttrs[relay.FnAttrGlobalSymbol] = "nir_0"
	m := relay.NewModule(relay.NewFunc([]*relay.Var{x}, relay.NewFnCall(region, []relay.Expr{x})))
	if err := m.Add("nir_0", region); err != nil {
		t.Fatal(err)
	}
	if err := relay.InferModule(m); err != nil {
		t.Fatalf("well-formed region module failed inference: %v", err)
	}
	return m, region
}

func wantClean(t *testing.T, res *verify.Result) {
	t.Helper()
	if !res.OK() {
		t.Fatalf("well-formed IR reported errors: %v", res.Err())
	}
}

func wantCheck(t *testing.T, res *verify.Result, check string) {
	t.Helper()
	if res.OK() {
		t.Fatalf("corruption went undetected (want %q)", check)
	}
	if !res.Has(check) {
		t.Fatalf("corruption detected but with the wrong class: want %q, got %v", check, res.Err())
	}
}

func TestModuleWellFormed(t *testing.T) {
	m, _, _ := convModule(t)
	wantClean(t, verify.Module(m, verify.Options{}))
	rm, _ := regionModule(t)
	wantClean(t, verify.Module(rm, verify.Options{}))
}

func TestCorruptUnboundVar(t *testing.T) {
	m, _, _ := convModule(t)
	stray := relay.NewVar("stray", relay.TType(tensor.Float32, 1, 6, 6, 8))
	main := m.Main()
	m.SetMain(relay.NewFunc(main.Params, relay.NewCall(relay.OpReLU, []relay.Expr{stray}, nil)))
	if err := relay.InferModule(m); err != nil {
		t.Fatal(err) // inference alone does not catch unbound variables
	}
	wantCheck(t, verify.Module(m, verify.Options{}), "unbound-var")
}

func TestCorruptUntyped(t *testing.T) {
	// A module that never went through InferType: rewrite-produced calls
	// carry no checked type.
	x := relay.NewVar("x", relay.TType(tensor.Float32, 1, 16))
	body := relay.NewCall(relay.OpReLU, []relay.Expr{x}, nil)
	m := relay.NewModule(relay.NewFunc([]*relay.Var{x}, body))
	wantCheck(t, verify.Module(m, verify.Options{}), "untyped")
}

func TestCorruptStaleTypeAfterAttrRewrite(t *testing.T) {
	// A buggy pass mutates attributes without re-running inference: the
	// checked type no longer agrees with the registry's inference.
	m, _, conv := convModule(t)
	conv.Attrs["strides"] = []int{2, 2}
	wantCheck(t, verify.Module(m, verify.Options{}), "type-mismatch")
}

func TestCorruptOpSignature(t *testing.T) {
	// Mis-wired arity: conv2d handed a third argument.
	m, x, conv := convModule(t)
	conv.Args = append(conv.Args, x)
	wantCheck(t, verify.Module(m, verify.Options{}), "op-signature")
}

func TestCorruptQuantParamsDropped(t *testing.T) {
	// The §3.3 invariant at the relay level: a quantized tensor type whose
	// scale/zero-point were dropped.
	x := relay.NewVar("x", relay.TType(tensor.UInt8, 1, 16)) // quantized dtype, no QuantParams
	m := relay.NewModule(relay.NewFunc([]*relay.Var{x}, x))
	if err := relay.InferModule(m); err != nil {
		t.Fatal(err)
	}
	wantCheck(t, verify.Module(m, verify.Options{}), "quant-params")
}

func TestCorruptRegionAttrs(t *testing.T) {
	m, region := regionModule(t)
	region.FnAttrs[relay.FnAttrGlobalSymbol] = "nir_9" // no longer matches the binding
	wantCheck(t, verify.Module(m, verify.Options{}), "region-attrs")
}

func TestCorruptDeadBinding(t *testing.T) {
	m, _ := regionModule(t)
	p := relay.NewVar("p", relay.TType(tensor.Float32, 1, 16))
	orphan := relay.NewFunc([]*relay.Var{p}, relay.NewCall(relay.OpTanh, []relay.Expr{p}, nil))
	orphan.FnAttrs[relay.FnAttrCompiler] = "nir"
	orphan.FnAttrs[relay.FnAttrGlobalSymbol] = "nir_7"
	if err := m.Add("nir_7", orphan); err != nil {
		t.Fatal(err)
	}
	if err := relay.InferModule(m); err != nil {
		t.Fatal(err)
	}
	wantCheck(t, verify.Module(m, verify.Options{}), "dead-binding")
}

func TestCorruptNestedPartition(t *testing.T) {
	// Region convexity: a partitioned region must never contain another
	// partitioned region.
	m, region := regionModule(t)
	q := relay.NewVar("q", relay.TType(tensor.Float32, 1, 16))
	inner := relay.NewFunc([]*relay.Var{q}, relay.NewCall(relay.OpSigmoid, []relay.Expr{q}, nil))
	inner.FnAttrs[relay.FnAttrCompiler] = "nir"
	inner.FnAttrs[relay.FnAttrGlobalSymbol] = "nir_inner"
	newBody := relay.NewFnCall(inner, []relay.Expr{region.Body})
	m.SetMain(m.Main()) // keep main; rewrite the region in place
	region.Body = newBody
	if err := relay.InferModule(m); err != nil {
		t.Fatal(err)
	}
	wantCheck(t, verify.Module(m, verify.Options{}), "nested-partition")
}

func TestCorruptPrimitiveNested(t *testing.T) {
	// FuseOps output invariant: a fused Primitive kernel must not contain a
	// nested function.
	x := relay.NewVar("x", relay.TType(tensor.Float32, 1, 16))
	q := relay.NewVar("q", relay.TType(tensor.Float32, 1, 16))
	innerPrim := relay.NewFunc([]*relay.Var{q}, relay.NewCall(relay.OpReLU, []relay.Expr{q}, nil))
	innerPrim.FnAttrs[relay.FnAttrPrimitive] = "1"
	p := relay.NewVar("p", relay.TType(tensor.Float32, 1, 16))
	outerPrim := relay.NewFunc([]*relay.Var{p}, relay.NewFnCall(innerPrim, []relay.Expr{p}))
	outerPrim.FnAttrs[relay.FnAttrPrimitive] = "1"
	m := relay.NewModule(relay.NewFunc([]*relay.Var{x}, relay.NewFnCall(outerPrim, []relay.Expr{x})))
	if err := relay.InferModule(m); err != nil {
		t.Fatal(err)
	}
	wantCheck(t, verify.Module(m, verify.Options{}), "primitive-nested")
}

func TestCorruptCallArity(t *testing.T) {
	m, region := regionModule(t)
	m.SetMain(relay.NewFunc(m.Main().Params, relay.NewFnCall(region, nil))) // region wants 1 arg
	wantCheck(t, verify.Module(m, verify.Options{}), "call-arity")
}

func TestCorruptRegionUnsupportedOp(t *testing.T) {
	// Partitioning placed an op inside a region that the external codegen
	// has no handler for.
	m, region := regionModule(t)
	region.Body = relay.NewCall(relay.OpExp, []relay.Expr{region.Params[0]}, nil)
	if err := relay.InferModule(m); err != nil {
		t.Fatal(err)
	}
	opts := verify.Options{ExternalOps: map[string]func(*relay.Call) bool{
		"nir": func(c *relay.Call) bool { return c.Op.Name != "exp" },
	}}
	wantCheck(t, verify.Module(m, opts), "region-unsupported-op")
	// The same module is clean when the codegen does support exp.
	opts.ExternalOps["nir"] = func(*relay.Call) bool { return true }
	wantClean(t, verify.Module(m, opts))
}

// --- Neuron IR mutations ---

// denseModel builds in→FULLY_CONNECTED→out with a constant weight.
func denseModel(t *testing.T) *neuron.Model {
	t.Helper()
	m := neuron.NewModel("test")
	in := m.AddOperand("in", neuron.OperandType{Shape: tensor.Shape{1, 8}, DType: tensor.Float32}, nil)
	w := m.AddOperand("w", neuron.OperandType{Shape: tensor.Shape{4, 8}, DType: tensor.Float32},
		tensor.New(tensor.Float32, tensor.Shape{4, 8}))
	out := m.AddOperand("out", neuron.OperandType{Shape: tensor.Shape{1, 4}, DType: tensor.Float32}, nil)
	m.AddOperation(neuron.FullyConnected, []int{in, w}, []int{out}, nil)
	m.Inputs = []int{in}
	m.Outputs = []int{out}
	if err := m.Validate(); err != nil {
		t.Fatalf("well-formed Neuron model invalid: %v", err)
	}
	return m
}

func TestNeuronModelWellFormed(t *testing.T) {
	wantClean(t, verify.NeuronModel(denseModel(t)))
}

func TestCorruptOperandOutOfRange(t *testing.T) {
	m := denseModel(t)
	m.Operations[0].Inputs[1] = 99
	wantCheck(t, verify.NeuronModel(m), "operand-range")
}

func TestCorruptNeuronQuantDropped(t *testing.T) {
	// The §3.3 invariant at the Neuron level: a quantized operand whose
	// params were dropped on the way through the converter.
	m := denseModel(t)
	m.Operands[0].Type.DType = tensor.UInt8 // no Quant attached
	wantCheck(t, verify.NeuronModel(m), "quant-params")
}

func TestCorruptNeuronArity(t *testing.T) {
	m := denseModel(t)
	m.Operations[0].Inputs = m.Operations[0].Inputs[:1] // FULLY_CONNECTED with one input
	wantCheck(t, verify.NeuronModel(m), "op-arity")
}

func TestCorruptTopologicalOrder(t *testing.T) {
	m := denseModel(t)
	// Append a RELU reading an operand that only a *later* operation
	// produces.
	mid := m.AddOperand("mid", neuron.OperandType{Shape: tensor.Shape{1, 4}, DType: tensor.Float32}, nil)
	ops := []neuron.Operation{
		{Code: neuron.ReLU, Inputs: []int{mid}, Outputs: []int{m.Outputs[0]}, Attrs: relay.Attrs{}},
		{Code: neuron.FullyConnected, Inputs: m.Operations[0].Inputs, Outputs: []int{mid}, Attrs: relay.Attrs{}},
	}
	m.Operations = ops
	wantCheck(t, verify.NeuronModel(m), "topo-order")
}

func TestCorruptFusedActivation(t *testing.T) {
	m := denseModel(t)
	m.Operations[0].Attrs = relay.Attrs{neuron.FusedActivationAttr: "swish"}
	wantCheck(t, verify.NeuronModel(m), "fused-activation")
}

// TestCorruptFusedBias: a fused bias is a rank-1 constant of one value per
// output channel. A short one used to pass the check and panic in the fused
// kernel at the first inference.
func TestCorruptFusedBias(t *testing.T) {
	cases := []struct {
		name  string
		shape tensor.Shape
		value bool
		bad   bool
	}{
		{"one per channel", tensor.Shape{4}, true, false},
		{"not a constant", tensor.Shape{4}, false, true},
		{"rank 2", tensor.Shape{1, 4}, true, true},
		{"short", tensor.Shape{3}, true, true},
		{"long", tensor.Shape{5}, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := denseModel(t) // FULLY_CONNECTED with 4 output channels
			var value *tensor.Tensor
			if tc.value {
				value = tensor.New(tensor.Float32, tc.shape)
			}
			b := m.AddOperand("b", neuron.OperandType{Shape: tc.shape, DType: tensor.Float32}, value)
			m.Operations[0].Inputs = append(m.Operations[0].Inputs, b)
			if !tc.bad {
				wantClean(t, verify.NeuronModel(m))
				return
			}
			wantCheck(t, verify.NeuronModel(m), "fused-bias")
		})
	}
}

func TestCorruptFusedRequantize(t *testing.T) {
	m := denseModel(t)
	m.Operations[0].Attrs = relay.Attrs{neuron.FusedRequantAttr: true} // no requant_output_scale
	wantCheck(t, verify.NeuronModel(m), "fused-requantize")
}

func TestCorruptPlanUnsupportedDevice(t *testing.T) {
	// The Execution Planner invariant: plans only assign ops to devices
	// whose supported-op set contains them. LOGISTIC cannot run on the APU.
	m := neuron.NewModel("plan")
	in := m.AddOperand("in", neuron.OperandType{Shape: tensor.Shape{1, 4}, DType: tensor.Float32}, nil)
	out := m.AddOperand("out", neuron.OperandType{Shape: tensor.Shape{1, 4}, DType: tensor.Float32}, nil)
	m.AddOperation(neuron.Logistic, []int{in}, []int{out}, nil)
	m.Inputs, m.Outputs = []int{in}, []int{out}
	cm := &neuron.CompiledModel{
		Model:   m,
		SoC:     soc.NewDimensity800(),
		Devices: []soc.DeviceKind{soc.KindCPU, soc.KindAPU},
		Plan:    []soc.DeviceKind{soc.KindAPU},
	}
	wantCheck(t, verify.Plan(cm), "plan-unsupported")
	if err := cm.CheckPlan(); err == nil {
		t.Error("neuron.CheckPlan accepted an op on a device that does not support it")
	}
	cm.Plan[0] = soc.KindCPU
	wantClean(t, verify.Plan(cm))
	// A device outside the enabled set is rejected even when capable.
	cm.Devices = []soc.DeviceKind{soc.KindAPU}
	wantCheck(t, verify.Plan(cm), "plan-device")
}

// --- pass instrumentation ---

func TestVerifyAfterEachPassNamesTheBreakingPass(t *testing.T) {
	m, _, _ := convModule(t)
	broken := relay.NewVar("stray", relay.TType(tensor.Float32, 1, 16))
	breakIt := passes.Pass{
		Name: "BreakIt",
		Run: func(m *relay.Module, ctx *passes.Context) (*relay.Module, error) {
			out := m.Clone()
			out.SetMain(relay.NewFunc(m.Main().Params,
				relay.NewCall(relay.OpReLU, []relay.Expr{broken}, nil)))
			return out, nil
		},
	}
	ctx := passes.NewContext(3)
	ctx.VerifyAfterEachPass = func(m *relay.Module, pass string) error {
		return verify.ModuleErr(m, verify.Options{})
	}
	// A clean pipeline passes the instrumentation.
	if _, err := passes.Sequential(m.Clone(), ctx, passes.SimplifyInference(), passes.FoldConstant()); err != nil {
		t.Fatalf("clean pipeline failed instrumented run: %v", err)
	}
	// The breaking pass is caught and named.
	_, err := passes.Sequential(m, ctx, passes.SimplifyInference(), breakIt, passes.FoldConstant())
	if err == nil {
		t.Fatal("instrumentation missed a pass that emitted an unbound variable")
	}
	if !strings.Contains(err.Error(), "after BreakIt") {
		t.Errorf("error does not name the breaking pass: %v", err)
	}
	if !strings.Contains(err.Error(), "unbound-var") {
		t.Errorf("error does not name the broken invariant: %v", err)
	}
}

// --- registry lint ---

func TestRegistriesCatchHalfRegisteredOp(t *testing.T) {
	snap := verify.RegistrySnapshot{
		RelayOps: []string{"nn.relu"},
		NIRHandlers: map[string]neuron.OpCode{
			"nn.relu":    neuron.ReLU,
			"nn.phantom": neuron.OpCode(len(neuron.OpCodes())),
		},
		TOPIKernels: []string{"nn.relu", "nn.orphan"},
	}
	res := verify.Registries(snap)
	for _, check := range []string{
		"nir-orphan-handler", // nn.phantom handled but not registered
		"nir-unknown-opcode", // nn.phantom names an opcode outside the catalogue
		"topi-orphan-kernel", // nn.orphan implements no registered op
		"neuron-no-kernel",   // most opcodes' kernels missing from the tiny inventory
	} {
		if !res.Has(check) {
			t.Errorf("lint missed %q: %v", check, res.Err())
		}
	}
	// The findings are about the broken rows only: the well-registered op
	// draws none.
	for _, d := range res.Diags {
		if strings.Contains(d.String(), "nir:nn.relu") || strings.Contains(d.String(), "topi:nn.relu") {
			t.Errorf("lint flagged the consistent op: %s", d)
		}
	}
}
