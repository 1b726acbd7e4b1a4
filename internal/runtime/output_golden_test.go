package runtime_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/models"
	"repro/internal/relay"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

// outputGoldenPath pins the bytes every output tensor of each quantized
// lite zoo model holds after one planned Run on a seeded input, at both
// build kinds. The plan executor and the interpreter call the same topi
// kernels, so their differential tests cannot see a kernel fault that keeps
// shapes; this pin can.
const outputGoldenPath = "testdata/outputs.golden"

// outputGoldenModels are the zoo's int8 models: the showcase's detector and
// the three quantized classifiers.
var outputGoldenModels = []string{
	"inception v3 (quant)",
	"mobilenet ssd (quant)",
	"mobilenet v1 (quant)",
	"mobilenet v2 (quant)",
}

// outputGoldenSeed is the models.RandomInput seed of the pinned run.
const outputGoldenSeed = 7

// zooOutputDigests renders one line per model, cut, build kind and output:
// its dtype, shape and the SHA-256 of its little-endian bytes. A lite
// classifier's softmax, quantized to 8 bits, reads 0 in every class on a
// random model, so a classifier is also pinned cut at its softmax's input:
// its dequantized logits, which every layer above reaches. The lite
// MobileNet v1's logits read 0 as well, its last feature map holds three
// values, so it is also pinned cut at its fifth relu6 (clip#5), which spreads
// over 14 values (earlyCuts).
func zooOutputDigests(t *testing.T) string {
	t.Helper()
	kinds := []struct {
		name string
		opts runtime.BuildOptions
	}{
		{"tvm", runtime.BuildOptions{OptLevel: 3}},
		{"byoc", runtime.BuildOptions{OptLevel: 3, UseNIR: true}},
	}
	var sb strings.Builder
	for _, name := range outputGoldenModels {
		spec, err := models.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		cuts := []struct {
			name  string
			build func() (*relay.Module, error)
		}{
			{"model", func() (*relay.Module, error) { return spec.Build(models.SizeLite) }},
			{"logits", func() (*relay.Module, error) {
				m, err := spec.Build(models.SizeLite)
				if err != nil {
					return nil, err
				}
				return cutAtSoftmax(m), nil
			}},
		}
		if n, ok := earlyCuts[name]; ok {
			cuts = append(cuts, struct {
				name  string
				build func() (*relay.Module, error)
			}{fmt.Sprintf("clip#%d", n), func() (*relay.Module, error) {
				m, err := spec.Build(models.SizeLite)
				if err != nil {
					return nil, err
				}
				return cutAtCall(m, "clip", n), nil
			}})
		}
		for _, cut := range cuts {
			m, err := cut.build()
			if err != nil {
				t.Fatal(err)
			}
			if m == nil {
				continue
			}
			in := models.RandomInput(m, outputGoldenSeed)
			for _, k := range kinds {
				lib, err := runtime.Build(m, k.opts)
				if err != nil {
					t.Fatalf("%s %s %s: %v", name, cut.name, k.name, err)
				}
				gm := runtime.NewGraphModule(lib)
				gm.SetExecutor(runtime.ExecutorPlanned)
				gm.SetInput(gm.InputNames()[0], in)
				if err := gm.Run(); err != nil {
					t.Fatalf("%s %s %s: run: %v", name, cut.name, k.name, err)
				}
				for i := 0; i < gm.NumOutputs(); i++ {
					out, err := gm.GetOutput(i)
					if err != nil {
						t.Fatalf("%s %s %s: output %d: %v", name, cut.name, k.name, i, err)
					}
					fmt.Fprintf(&sb, "%s\t%s\t%s\tout%d %s %s sha256 %x\n", name, cut.name, k.name, i, out.DType, out.Shape, tensorSHA256(t, out))
				}
			}
		}
	}
	return sb.String()
}

// cutAtSoftmax returns m with its main function ending at the input of its
// last nn.softmax, or nil when it has none.
func cutAtSoftmax(m *relay.Module) *relay.Module {
	var logits relay.Expr
	relay.PostOrderVisit(m.Main().Body, func(e relay.Expr) {
		if c, ok := e.(*relay.Call); ok && c.OpName() == "nn.softmax" {
			logits = c.Args[0]
		}
	})
	if logits == nil {
		return nil
	}
	return relay.NewModule(relay.NewFunc(m.Main().Params, logits))
}

// earlyCuts names, per model, the clip call (1-based, in post order) an
// extra pin line cuts it at: a feature map near the input, for a model
// whose outputs carry almost no signal on a seeded input.
var earlyCuts = map[string]int{"mobilenet v1 (quant)": 5}

// cutAtCall returns m with its main function ending at its n-th call of
// op in post order, or nil when it has fewer.
func cutAtCall(m *relay.Module, op string, n int) *relay.Module {
	var cut relay.Expr
	relay.PostOrderVisit(m.Main().Body, func(e relay.Expr) {
		if c, ok := e.(*relay.Call); ok && c.OpName() == op {
			if n--; n == 0 {
				cut = c
			}
		}
	})
	if cut == nil {
		return nil
	}
	return relay.NewModule(relay.NewFunc(m.Main().Params, cut))
}

// tensorSHA256 hashes t's elements as little-endian bytes.
func tensorSHA256(t *testing.T, x *tensor.Tensor) [sha256.Size]byte {
	t.Helper()
	h := sha256.New()
	var data any
	switch x.DType {
	case tensor.Float32:
		data = x.F32()
	case tensor.Int32:
		data = x.I32()
	case tensor.UInt8:
		data = x.U8()
	case tensor.Int8:
		data = x.I8()
	default:
		t.Fatalf("no byte form for a %s output", x.DType)
	}
	if err := binary.Write(h, binary.LittleEndian, data); err != nil {
		t.Fatal(err)
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// TestZooQuantOutputGolden: every output of the quantized lite zoo models,
// planned TVM-only and BYOC, is exactly the committed one. A kernel change
// that claims to keep every bit must not move a line; there is no update
// flag.
func TestZooQuantOutputGolden(t *testing.T) {
	want, err := os.ReadFile(outputGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got := zooOutputDigests(t)
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("%s line %d:\n got %s\nwant %s", outputGoldenPath, i+1, g, w)
		}
	}
}
