package runtime

import (
	"bytes"
	"testing"

	"repro/internal/neuron"
	"repro/internal/passes"
	"repro/internal/relay"
	"repro/internal/soc"
	"repro/internal/tensor"
)

func randConst(shape tensor.Shape, seed uint64) *relay.Constant {
	t := tensor.New(tensor.Float32, shape)
	t.FillUniform(tensor.NewRNG(seed), -0.5, 0.5)
	return relay.Const(t)
}

// smallCNN: conv-bias-relu -> maxpool -> conv-bias-relu -> gap -> dense ->
// softmax, sized so the simulated APU is worth its invocation overhead
// (mobile-model-scale convolution workloads).
func smallCNN() *relay.Module {
	data := relay.NewVar("data", relay.TType(tensor.Float32, 1, 32, 32, 16))
	c1 := relay.NewCall(relay.OpConv2D, []relay.Expr{data, randConst(tensor.Shape{32, 3, 3, 16}, 1)},
		relay.Attrs{"padding": []int{1, 1}})
	b1 := relay.NewCall(relay.OpBiasAdd, []relay.Expr{c1, randConst(tensor.Shape{32}, 2)}, nil)
	r1 := relay.NewCall(relay.OpReLU, []relay.Expr{b1}, nil)
	p1 := relay.NewCall(relay.OpMaxPool2D, []relay.Expr{r1},
		relay.Attrs{"pool_size": []int{2, 2}, "strides": []int{2, 2}})
	c2 := relay.NewCall(relay.OpConv2D, []relay.Expr{p1, randConst(tensor.Shape{64, 3, 3, 32}, 3)},
		relay.Attrs{"padding": []int{1, 1}})
	r2 := relay.NewCall(relay.OpReLU, []relay.Expr{c2}, nil)
	gap := relay.NewCall(relay.OpGlobalAvgPool, []relay.Expr{r2}, nil)
	flat := relay.NewCall(relay.OpBatchFlatten, []relay.Expr{gap}, nil)
	fc := relay.NewCall(relay.OpDense, []relay.Expr{flat, randConst(tensor.Shape{10, 64}, 4)}, nil)
	sm := relay.NewCall(relay.OpSoftmax, []relay.Expr{fc}, nil)
	return relay.NewModule(relay.NewFunc([]*relay.Var{data}, sm))
}

// cnnWithUnsupported inserts a leaky_relu (outside the Neuron op set) in the
// middle, forcing a host gap between two external regions.
func cnnWithUnsupported() *relay.Module {
	data := relay.NewVar("data", relay.TType(tensor.Float32, 1, 8, 8, 3))
	c1 := relay.NewCall(relay.OpConv2D, []relay.Expr{data, randConst(tensor.Shape{4, 3, 3, 3}, 1)},
		relay.Attrs{"padding": []int{1, 1}})
	lk := relay.NewCall(relay.OpLeakyReLU, []relay.Expr{c1}, relay.Attrs{"alpha": 0.1})
	c2 := relay.NewCall(relay.OpConv2D, []relay.Expr{lk, randConst(tensor.Shape{4, 3, 3, 4}, 2)},
		relay.Attrs{"padding": []int{1, 1}})
	r2 := relay.NewCall(relay.OpReLU, []relay.Expr{c2}, nil)
	return relay.NewModule(relay.NewFunc([]*relay.Var{data}, r2))
}

func input(shape tensor.Shape, seed uint64) *tensor.Tensor {
	t := tensor.New(tensor.Float32, shape)
	t.FillUniform(tensor.NewRNG(seed), 0, 1)
	return t
}

func runModule(t *testing.T, m *relay.Module, opts BuildOptions, in *tensor.Tensor) (*GraphModule, *tensor.Tensor) {
	t.Helper()
	lib, err := Build(m, opts)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	gm := NewGraphModule(lib)
	gm.SetInput(gm.InputNames()[0], in)
	if err := gm.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return gm, gm.MustOutput(0)
}

func TestTVMOnlyExecution(t *testing.T) {
	m := smallCNN()
	in := input(tensor.Shape{1, 32, 32, 16}, 9)
	gm, out := runModule(t, m, BuildOptions{OptLevel: 3}, in)
	if !out.Shape.Equal(tensor.Shape{1, 10}) {
		t.Fatalf("output shape %s", out.Shape)
	}
	var sum float64
	for i := 0; i < 10; i++ {
		sum += out.GetF(i)
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("softmax output sums to %g", sum)
	}
	prof := gm.LastProfile()
	if prof == nil || prof.Total() <= 0 {
		t.Error("no simulated cost recorded")
	}
	if prof.Launches[soc.KindAPU] != 0 {
		t.Error("TVM-only run must not touch the APU")
	}
}

func TestBYOCMatchesTVMOnly(t *testing.T) {
	in := input(tensor.Shape{1, 32, 32, 16}, 10)
	_, ref := runModule(t, smallCNN(), BuildOptions{OptLevel: 3}, in)
	gm, got := runModule(t, smallCNN(), BuildOptions{OptLevel: 3, UseNIR: true}, in)
	if !tensor.AllClose(got, ref, 1e-4, 1e-4) {
		t.Errorf("BYOC output differs from TVM-only, max diff %g", tensor.MaxAbsDiff(got, ref))
	}
	prof := gm.LastProfile()
	if prof.Subgraphs == 0 {
		t.Error("BYOC run reported no external subgraphs")
	}
	if prof.Launches[soc.KindAPU] == 0 {
		t.Error("BYOC CPU+APU run never used the APU")
	}
}

func TestBYOCFasterThanTVMOnly(t *testing.T) {
	in := input(tensor.Shape{1, 32, 32, 16}, 11)
	tvm, _ := runModule(t, smallCNN(), BuildOptions{OptLevel: 3}, in)
	byoc, _ := runModule(t, smallCNN(), BuildOptions{OptLevel: 3, UseNIR: true}, in)
	tTVM := tvm.LastProfile().Total()
	tBYOC := byoc.LastProfile().Total()
	if tBYOC >= tTVM {
		t.Errorf("BYOC (%s) should beat TVM-only (%s) — the paper's headline effect", tBYOC, tTVM)
	}
}

func TestPartitionSplitsAroundUnsupportedAndMatches(t *testing.T) {
	in := input(tensor.Shape{1, 8, 8, 3}, 12)
	_, ref := runModule(t, cnnWithUnsupported(), BuildOptions{OptLevel: 3}, in)
	gm, got := runModule(t, cnnWithUnsupported(), BuildOptions{OptLevel: 3, UseNIR: true}, in)
	if !tensor.AllClose(got, ref, 1e-4, 1e-4) {
		t.Errorf("split-graph BYOC differs, max %g", tensor.MaxAbsDiff(got, ref))
	}
	ext := gm.Lib().Module.ExternalFuncs("nir")
	if len(ext) != 2 {
		t.Errorf("expected 2 external regions around leaky_relu, got %d", len(ext))
	}
	if gm.LastProfile().Subgraphs != 2 {
		t.Errorf("expected 2 subgraph invocations, got %d", gm.LastProfile().Subgraphs)
	}
}

func TestUnfusedSlowerThanFused(t *testing.T) {
	in := input(tensor.Shape{1, 32, 32, 16}, 13)
	fused, _ := runModule(t, smallCNN(), BuildOptions{OptLevel: 3}, in)
	unfused, _ := runModule(t, smallCNN(), BuildOptions{OptLevel: 0}, in)
	if fused.LastProfile().Total() >= unfused.LastProfile().Total() {
		t.Errorf("fusion should reduce simulated time: fused %s vs unfused %s",
			fused.LastProfile().Total(), unfused.LastProfile().Total())
	}
	// Numerics must agree regardless of fusion.
	fusedOut := fused.MustOutput(0)
	unfusedOut := unfused.MustOutput(0)
	if !tensor.AllClose(fusedOut, unfusedOut, 1e-4, 1e-4) {
		t.Error("fusion changed numerics")
	}
}

func TestNeuroPilotOnlySupportedModel(t *testing.T) {
	m := smallCNN()
	cm, err := BuildNeuroPilotOnly(m, nil, []soc.DeviceKind{soc.KindCPU, soc.KindAPU})
	if err != nil {
		t.Fatalf("NeuroPilot-only build failed on a fully supported model: %v", err)
	}
	in := input(tensor.Shape{1, 32, 32, 16}, 14)
	outs, err := cm.Execute([]*tensor.Tensor{in})
	if err != nil {
		t.Fatal(err)
	}
	prof := soc.NewProfile()
	cm.Estimate(prof)
	_, ref := runModule(t, smallCNN(), BuildOptions{OptLevel: 3}, in)
	if !tensor.AllClose(outs[0], ref, 1e-4, 1e-4) {
		t.Errorf("NeuroPilot-only output differs, max %g", tensor.MaxAbsDiff(outs[0], ref))
	}
	if prof.Total() <= 0 {
		t.Error("no cost recorded")
	}
}

func TestNeuroPilotOnlyUnsupportedModelHasNoStatistics(t *testing.T) {
	m := cnnWithUnsupported()
	_, err := BuildNeuroPilotOnly(m, nil, []soc.DeviceKind{soc.KindCPU, soc.KindAPU})
	if err == nil {
		t.Fatal("model with leaky_relu must not compile NeuroPilot-only")
	}
	if !IsNoStatistics(err) {
		t.Errorf("error should classify as no-statistics, got: %v", err)
	}
}

func TestNeuroPilotAPUOnlyRejectsCPUOnlyOps(t *testing.T) {
	// sigmoid is in the Neuron op set but not APU-supported.
	data := relay.NewVar("d", relay.TType(tensor.Float32, 1, 4))
	sg := relay.NewCall(relay.OpSigmoid, []relay.Expr{data}, nil)
	m := relay.NewModule(relay.NewFunc([]*relay.Var{data}, sg))
	_, err := BuildNeuroPilotOnly(m, nil, []soc.DeviceKind{soc.KindAPU})
	if err == nil {
		t.Fatal("sigmoid on APU-only must fail to compile")
	}
	var ue *neuron.UnsupportedError
	if !asUnsupported(err, &ue) {
		t.Errorf("want UnsupportedError, got %v", err)
	}
	if !IsNoStatistics(err) {
		t.Error("APU-only failure should classify as no-statistics")
	}
}

func asUnsupported(err error, target **neuron.UnsupportedError) bool {
	for err != nil {
		if ue, ok := err.(*neuron.UnsupportedError); ok {
			*target = ue
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestMissingInputError(t *testing.T) {
	lib, err := Build(smallCNN(), BuildOptions{OptLevel: 3})
	if err != nil {
		t.Fatal(err)
	}
	gm := NewGraphModule(lib)
	if err := gm.Run(); err == nil {
		t.Error("Run without inputs must fail")
	}
}

func TestWrongShapeInputError(t *testing.T) {
	lib, err := Build(smallCNN(), BuildOptions{OptLevel: 3})
	if err != nil {
		t.Fatal(err)
	}
	gm := NewGraphModule(lib)
	gm.SetInput("data", tensor.New(tensor.Float32, tensor.Shape{1, 8, 8, 3}))
	if err := gm.Run(); err == nil {
		t.Error("Run with wrong input shape must fail")
	}
}

func TestAPUOnlyBYOCUsesOnlyAPUForRegions(t *testing.T) {
	in := input(tensor.Shape{1, 32, 32, 16}, 15)
	gm, _ := runModule(t, smallCNN(), BuildOptions{
		OptLevel: 3, UseNIR: true, NIRDevices: []soc.DeviceKind{soc.KindAPU},
	}, in)
	prof := gm.LastProfile()
	if prof.Launches[soc.KindAPU] == 0 {
		t.Error("APU-targeted BYOC never used the APU")
	}
	if prof.DMATime <= 0 {
		t.Error("APU execution must charge DMA for boundary crossings")
	}
}

func TestRegionMergeAblation(t *testing.T) {
	// Without region merging every supported op pays its own subgraph
	// boundary — the anti-spoofing pathology. It must be slower.
	in := input(tensor.Shape{1, 32, 32, 16}, 16)
	merged, _ := runModule(t, smallCNN(), BuildOptions{OptLevel: 3, UseNIR: true}, in)
	unmerged, _ := runModule(t, smallCNN(), BuildOptions{
		OptLevel: 3, UseNIR: true,
		Partition: mkPartition(false),
	}, in)
	mp, up := merged.LastProfile(), unmerged.LastProfile()
	if up.Subgraphs <= mp.Subgraphs {
		t.Errorf("unmerged should have more subgraphs: %d vs %d", up.Subgraphs, mp.Subgraphs)
	}
	if up.Total() <= mp.Total() {
		t.Errorf("unmerged (%s) should be slower than merged (%s)", up.Total(), mp.Total())
	}
	// And identical numerics.
	if !tensor.AllClose(merged.MustOutput(0), unmerged.MustOutput(0), 1e-4, 1e-4) {
		t.Error("region merging changed numerics")
	}
}

func mkPartition(merge bool) passes.PartitionOptions {
	return passes.PartitionOptions{MergeRegions: merge, MinRegionSize: 1}
}

func TestExportLoadRoundTrip(t *testing.T) {
	in := input(tensor.Shape{1, 32, 32, 16}, 20)
	gm, ref := runModule(t, smallCNN(), BuildOptions{OptLevel: 3, UseNIR: true}, in)

	var buf bytes.Buffer
	if err := gm.Lib().ExportLibrary(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	loaded, err := LoadLibrary(&buf, nil)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	gm2 := NewGraphModule(loaded)
	gm2.SetInput(gm2.InputNames()[0], in)
	if err := gm2.Run(); err != nil {
		t.Fatalf("run loaded: %v", err)
	}
	got := gm2.MustOutput(0)
	if !tensor.AllClose(got, ref, 1e-6, 1e-6) {
		t.Errorf("loaded artifact output differs, max %g", tensor.MaxAbsDiff(got, ref))
	}
	// External plans survive the round trip.
	if len(loaded.External) != len(gm.Lib().External) {
		t.Errorf("externals: %d vs %d", len(loaded.External), len(gm.Lib().External))
	}
	// Simulated cost identical on both sides.
	if gm2.LastProfile().Total() != gm.LastProfile().Total() {
		t.Errorf("cost changed across export/load: %s vs %s",
			gm2.LastProfile().Total(), gm.LastProfile().Total())
	}
}

func TestLoadLibraryRejectsGarbage(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("definitely not an artifact")
	if _, err := LoadLibrary(&buf, nil); err == nil {
		t.Error("garbage accepted as artifact")
	}
}

// newQuantBuilder assembles a small quantized relay module directly (a
// qnn.conv2d chain like the tflite importer emits) plus a matching input.
type quantFixture struct {
	mod   *relay.Module
	input *tensor.Tensor
}

func newQuantBuilder(t *testing.T) quantFixture {
	t.Helper()
	inQ := tensor.QuantParams{Scale: 1.0 / 255, ZeroPoint: 0}
	wQ := tensor.QuantParams{Scale: 0.01, ZeroPoint: 128}
	outQ := tensor.QuantParams{Scale: 8.0 / 255, ZeroPoint: 128}
	data := relay.NewVar("data", relay.QTType(tensor.UInt8, inQ, 1, 16, 16, 3))
	wf := tensor.New(tensor.Float32, tensor.Shape{8, 3, 3, 3})
	wf.FillUniform(tensor.NewRNG(21), -0.5, 0.5)
	conv := relay.NewCall(relay.OpQnnConv2D, []relay.Expr{data, relay.Const(wf.QuantizeTo(tensor.UInt8, wQ))},
		relay.Attrs{"padding": []int{1, 1},
			"input_scale": inQ.Scale, "input_zero_point": int(inQ.ZeroPoint),
			"kernel_scale": wQ.Scale, "kernel_zero_point": int(wQ.ZeroPoint)})
	bias := relay.NewCall(relay.OpBiasAdd,
		[]relay.Expr{conv, relay.Const(tensor.New(tensor.Int32, tensor.Shape{8}))}, nil)
	rq := relay.NewCall(relay.OpQnnRequantize, []relay.Expr{bias}, relay.Attrs{
		"input_scale": inQ.Scale * wQ.Scale, "input_zero_point": 0,
		"output_scale": outQ.Scale, "output_zero_point": int(outQ.ZeroPoint), "out_dtype": "uint8"})
	act := relay.NewCall(relay.OpClip, []relay.Expr{rq}, relay.Attrs{"a_min": 0.0, "a_max": 6.0})
	deq := relay.NewCall(relay.OpQnnDequantize, []relay.Expr{act}, relay.Attrs{
		"input_scale": outQ.Scale, "input_zero_point": int(outQ.ZeroPoint)})
	mod := relay.NewModule(relay.NewFunc([]*relay.Var{data}, deq))

	in := tensor.New(tensor.UInt8, tensor.Shape{1, 16, 16, 3})
	in.Quant = &inQ
	rng := tensor.NewRNG(8)
	raw := in.U8()
	for i := range raw {
		raw[i] = uint8(rng.Intn(256))
	}
	return quantFixture{mod: mod, input: in}
}

// Fused quantized models (bool attrs, requant params) must survive the
// artifact round trip with identical numerics and cost.
func TestExportLoadQuantizedFused(t *testing.T) {
	b := newQuantBuilder(t)
	mod := b.mod
	lib, err := Build(mod, BuildOptions{OptLevel: 3, UseNIR: true})
	if err != nil {
		t.Fatal(err)
	}
	gm := NewGraphModule(lib)
	gm.SetInput(gm.InputNames()[0], b.input)
	if err := gm.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := lib.ExportLibrary(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadLibrary(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	gm2 := NewGraphModule(loaded)
	gm2.SetInput(gm2.InputNames()[0], b.input)
	if err := gm2.Run(); err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(gm2.MustOutput(0), gm.MustOutput(0), 0, 0) {
		t.Error("quantized artifact round trip changed outputs")
	}
	if gm2.LastProfile().Total() != gm.LastProfile().Total() {
		t.Error("quantized artifact round trip changed simulated cost")
	}
}

func TestLoadLibraryCorruptGraph(t *testing.T) {
	// Valid magic + bogus JSON length / content must fail cleanly.
	lib, err := Build(smallCNN(), BuildOptions{OptLevel: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := lib.ExportLibrary(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	// Smash the opening brace of the JSON section (byte 10: magic is 6
	// bytes, length 4 bytes).
	mut := append([]byte(nil), blob...)
	mut[10] = '!'
	if _, err := LoadLibrary(bytes.NewReader(mut), nil); err == nil {
		t.Error("corrupt artifact accepted")
	}
	// Absurd JSON length must fail rather than over-read.
	mut2 := append([]byte(nil), blob...)
	mut2[6], mut2[7], mut2[8], mut2[9] = 0xff, 0xff, 0xff, 0x7f
	if _, err := LoadLibrary(bytes.NewReader(mut2), nil); err == nil {
		t.Error("oversized length accepted")
	}
	// Truncate mid-constants.
	if _, err := LoadLibrary(bytes.NewReader(blob[:len(blob)/2]), nil); err == nil {
		t.Error("truncated artifact accepted")
	}
}
