package models

import (
	"bytes"
	"testing"

	"repro/internal/nir"
	"repro/internal/passes"
	"repro/internal/relay"
	"repro/internal/runtime"
	"repro/internal/soc"
	"repro/internal/tensor"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"anti-spoofing", "emotion", "mobilenet ssd (quant)", "yolov3",
		"densenet", "inception resnet v2", "inception v3", "inception v4",
		"mobilenet v1", "mobilenet v2", "nasnet",
		"inception v3 (quant)", "mobilenet v1 (quant)", "mobilenet v2 (quant)",
	}
	for _, n := range want {
		if _, err := Get(n); err != nil {
			t.Errorf("missing model %q", n)
		}
	}
	if len(Names()) != len(want) {
		t.Errorf("registry has %d entries, want %d: %v", len(Names()), len(want), Names())
	}
}

func TestTable1Inventory(t *testing.T) {
	specs := Table1()
	if len(specs) != 7 {
		t.Fatalf("Table 1 lists 7 models, got %d", len(specs))
	}
	for _, s := range specs {
		if s.DataType != tensor.Float32 {
			t.Errorf("%s: Table 1 models are float32, got %s", s.Name, s.DataType)
		}
	}
}

func TestFigure6Sweep(t *testing.T) {
	specs := Figure6()
	if len(specs) != 10 {
		t.Fatalf("Figure 6 sweeps 10 models, got %d", len(specs))
	}
	quant := 0
	for _, s := range specs {
		if s.DataType.IsQuantized() {
			quant++
		}
	}
	if quant != 3 {
		t.Errorf("expected 3 quantized variants (inception v3, mobilenet v1/v2), got %d", quant)
	}
}

// buildLite builds every model at SizeLite, ensuring every frontend path
// works for every architecture family, and that every constant it carries
// survives the binary tensor format (tensor.ReadFrom reads in bounded steps)
// bit for bit.
func TestAllModelsBuildLite(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, _ := Get(name)
			m, err := spec.Build(SizeLite)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if err := relay.InferModule(m); err != nil {
				t.Fatalf("type check: %v", err)
			}
			if n := relay.CountOps(m.Main()); n < 5 {
				t.Errorf("suspiciously small graph: %d ops", n)
			}
			relay.PostOrderVisit(m.Main().Body, func(e relay.Expr) {
				c, ok := e.(*relay.Constant)
				if !ok {
					return
				}
				var want, back bytes.Buffer
				if err := c.Value.Serialize(&want); err != nil {
					t.Fatalf("serialize %s: %v", c.Value, err)
				}
				got, err := tensor.ReadFrom(bytes.NewReader(want.Bytes()))
				if err != nil {
					t.Fatalf("read back %s: %v", c.Value, err)
				}
				if err := got.Serialize(&back); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(back.Bytes(), want.Bytes()) {
					t.Errorf("constant %s does not round-trip bitwise", c.Value)
				}
			})
		})
	}
}

// Every lite model must execute end-to-end through the BYOC flow.
func TestAllModelsRunLiteBYOC(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, _ := Get(name)
			m, err := spec.Build(SizeLite)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			lib, err := runtime.Build(m, runtime.BuildOptions{OptLevel: 3, UseNIR: true})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			gm := runtime.NewGraphModule(lib)
			gm.SetInput(gm.InputNames()[0], RandomInput(m, 1))
			if err := gm.Run(); err != nil {
				t.Fatalf("run: %v", err)
			}
			if gm.LastProfile().Total() <= 0 {
				t.Error("no simulated cost")
			}
		})
	}
}

// The NeuroPilot-only support matrix drives the missing bars of Figures 4/6.
func TestNeuroPilotOnlySupportMatrix(t *testing.T) {
	cases := []struct {
		name      string
		supported bool
	}{
		{"anti-spoofing", false},        // leaky + spatial mean
		{"emotion", true},               // fully covered, APU-runnable
		{"mobilenet ssd (quant)", true}, // LOGISTIC is CPU-only but in the set
		{"yolov3", false},               // leaky + yolo decode
		{"densenet", true},
		{"nasnet", false}, // mean head
		{"inception resnet v2", true},
		{"mobilenet v1", true},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			spec, _ := Get(c.name)
			m, err := spec.Build(SizeLite)
			if err != nil {
				t.Fatal(err)
			}
			_, err = runtime.BuildNeuroPilotOnly(m, nil, []soc.DeviceKind{soc.KindCPU, soc.KindAPU})
			if c.supported && err != nil {
				t.Errorf("should compile NeuroPilot-only, got: %v", err)
			}
			if !c.supported && err == nil {
				t.Error("should NOT compile NeuroPilot-only")
			}
		})
	}
}

// Emotion must run APU-only (paper §5.1: best on APU alone); the SSD must
// not (LOGISTIC is CPU-only).
func TestAPUOnlyMatrix(t *testing.T) {
	em, err := BuildEmotion(SizeLite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runtime.BuildNeuroPilotOnly(em, nil, []soc.DeviceKind{soc.KindAPU}); err != nil {
		t.Errorf("emotion should run APU-only: %v", err)
	}
	ssd, err := BuildMobileNetSSDQuant(SizeLite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runtime.BuildNeuroPilotOnly(ssd, nil, []soc.DeviceKind{soc.KindAPU}); err == nil {
		t.Error("SSD (LOGISTIC head) must not run APU-only")
	}
}

// The anti-spoofing model must shatter into many subgraphs (paper §5.1).
func TestAntiSpoofManySubgraphs(t *testing.T) {
	m, err := BuildDeePixBiS(SizeFull)
	if err != nil {
		t.Fatal(err)
	}
	part, err := nir.PartitionForNIR(m, passes.DefaultPartitionOptions())
	if err != nil {
		t.Fatal(err)
	}
	nRegions := len(part.ExternalFuncs("nir"))
	if nRegions < 4 {
		t.Errorf("anti-spoofing partitioned into %d regions, expected the many-subgraph pathology (>=4)", nRegions)
	}
	// Emotion, by contrast, is a single region.
	em, err := BuildEmotion(SizeLite)
	if err != nil {
		t.Fatal(err)
	}
	partE, err := nir.PartitionForNIR(em, passes.DefaultPartitionOptions())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(partE.ExternalFuncs("nir")); n != 1 {
		t.Errorf("emotion partitioned into %d regions, want 1", n)
	}
	_ = partE
}

func TestModelDeterminism(t *testing.T) {
	a, err := BuildEmotion(SizeLite)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildEmotion(SizeLite)
	if err != nil {
		t.Fatal(err)
	}
	in := RandomInput(a, 7)
	run := func(m *relay.Module) *tensor.Tensor {
		lib, err := runtime.Build(m, runtime.BuildOptions{OptLevel: 3})
		if err != nil {
			t.Fatal(err)
		}
		gm := runtime.NewGraphModule(lib)
		gm.SetInput(gm.InputNames()[0], in)
		if err := gm.Run(); err != nil {
			t.Fatal(err)
		}
		return gm.MustOutput(0)
	}
	if !tensor.AllClose(run(a), run(b), 0, 0) {
		t.Error("two builds of the same model differ (non-deterministic weights)")
	}
}

func TestRandomInputMatchesModel(t *testing.T) {
	ssd, err := BuildMobileNetSSDQuant(SizeLite)
	if err != nil {
		t.Fatal(err)
	}
	in := RandomInput(ssd, 3)
	if in.DType != tensor.UInt8 || in.Quant == nil {
		t.Errorf("SSD input should be quantized uint8, got %s", in)
	}
	em, err := BuildEmotion(SizeLite)
	if err != nil {
		t.Fatal(err)
	}
	if RandomInput(em, 3).DType != tensor.Float32 {
		t.Error("emotion input should be float32")
	}
}
