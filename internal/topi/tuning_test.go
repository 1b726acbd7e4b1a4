package topi

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/relay"
	"repro/internal/tensor"
)

func TestTaskKeyStringRoundTrip(t *testing.T) {
	keys := []TaskKey{
		{Op: "nn.conv2d", N: 1, H: 8, W: 8, C: 3, OC: 4, KH: 3, KW: 3, ICG: 3,
			SH: 1, SW: 1, DH: 1, DW: 1, Groups: 1, PadT: 1, PadL: 1, PadB: 1, PadR: 1, DType: "float32"},
		{Op: "qnn.conv2d", N: 2, H: 224, W: 224, C: 32, OC: 64, KH: 3, KW: 3, ICG: 1,
			SH: 2, SW: 2, DH: 1, DW: 1, Groups: 32, PadT: 0, PadL: 1, PadB: 0, PadR: 1, DType: "uint8"},
		{Op: "nn.dense", N: 1, H: 1, W: 1, C: 1024, OC: 1000, KH: 1, KW: 1, ICG: 1024,
			SH: 1, SW: 1, DH: 1, DW: 1, Groups: 1, DType: "float32"},
	}
	for _, k := range keys {
		back, err := ParseTaskKey(k.String())
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if back != k {
			t.Fatalf("round-trip %s -> %s", k, back)
		}
	}
	for _, bad := range []string{"", "nn.conv2d", "nn.conv2d|d=1x1|w=1|s=1|l=1|p=1|g=1|f32",
		"nn.conv2d|d=1x1x1x1|w=1x1x1x1|s=1x1|l=1x1|p=1,1,1,1|g=x|float32"} {
		if _, err := ParseTaskKey(bad); err == nil {
			t.Errorf("ParseTaskKey(%q) accepted garbage", bad)
		}
	}
}

func TestTaskKeyFusedOpNormalization(t *testing.T) {
	data := tensor.New(tensor.UInt8, tensor.Shape{1, 8, 8, 4})
	weight := tensor.New(tensor.UInt8, tensor.Shape{8, 3, 3, 4})
	plain := ConvTaskKey("qnn.conv2d", data, weight, 1, 1, 1, 1, 1, [4]int{1, 1, 1, 1})
	fused := ConvTaskKey("qnn.conv2d_fused", data, weight, 1, 1, 1, 1, 1, [4]int{1, 1, 1, 1})
	if plain != fused {
		t.Fatalf("fused key %s != anchor key %s", fused, plain)
	}
	if fused.Op != "qnn.conv2d" {
		t.Fatalf("fused op normalized to %q", fused.Op)
	}
	if d := DenseTaskKey("qnn.dense_fused", tensor.New(tensor.UInt8, tensor.Shape{1, 16}),
		tensor.New(tensor.UInt8, tensor.Shape{4, 16})); d.Op != "qnn.dense" {
		t.Fatalf("fused dense op normalized to %q", d.Op)
	}
}

// TestTaskKeyTypesMatchesTensors pins the extractor-side key (relay types)
// to the dispatch-side key (tensors): a record written from a compiled
// module must be found by the kernel at launch time.
func TestTaskKeyTypesMatchesTensors(t *testing.T) {
	data := tensor.New(tensor.Float32, tensor.Shape{2, 16, 12, 8})
	weight := tensor.New(tensor.Float32, tensor.Shape{24, 3, 5, 8})
	attrs := relay.Attrs{"strides": []int{2, 1}, "dilation": []int{1, 2},
		"padding": []int{1, 2, 3, 4}, "groups": 1}
	fromTypes := ConvTaskKeyTypes("nn.conv2d",
		&relay.TensorType{Shape: data.Shape, DType: data.DType},
		&relay.TensorType{Shape: weight.Shape, DType: weight.DType}, attrs)
	fromTensors := ConvTaskKey("nn.conv2d", data, weight, 2, 1, 1, 2, 1, [4]int{1, 2, 3, 4})
	if fromTypes != fromTensors {
		t.Fatalf("type-based key %s != tensor-based key %s", fromTypes, fromTensors)
	}

	dd := tensor.New(tensor.UInt8, tensor.Shape{3, 40})
	dw := tensor.New(tensor.UInt8, tensor.Shape{10, 40})
	dTypes := DenseTaskKeyTypes("qnn.dense",
		&relay.TensorType{Shape: dd.Shape, DType: dd.DType},
		&relay.TensorType{Shape: dw.Shape, DType: dw.DType})
	dTensors := DenseTaskKey("qnn.dense", dd, dw)
	if dTypes != dTensors {
		t.Fatalf("type-based dense key %s != tensor-based %s", dTypes, dTensors)
	}
}

// runConv launches nn.conv2d through the public dispatch and returns the
// output tensor.
func runConv(t *testing.T, data, weight *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	out := &relay.TensorType{Shape: tensor.Shape{
		data.Shape[0], data.Shape[1], data.Shape[2], weight.Shape[0]}, DType: tensor.Float32}
	got, err := Run("nn.conv2d", []*tensor.Tensor{data, weight},
		relay.Attrs{"strides": []int{1, 1}, "padding": []int{1, 1}}, out)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestTunedDispatchCountsHitsAndMisses(t *testing.T) {
	prev := SetTuning(nil)
	defer SetTuning(prev)

	rng := rand.New(rand.NewSource(3))
	data := tensor.New(tensor.Float32, tensor.Shape{1, 6, 6, 3})
	weight := tensor.New(tensor.Float32, tensor.Shape{4, 3, 3, 3})
	for i := range data.F32() {
		data.F32()[i] = rng.Float32()*2 - 1
	}
	for i := range weight.F32() {
		weight.F32()[i] = rng.Float32()*2 - 1
	}
	base := runConv(t, data, weight)

	key := ConvTaskKey("nn.conv2d", data, weight, 1, 1, 1, 1, 1, [4]int{1, 1, 1, 1})
	tbl := NewTuningTable()
	tbl.Set(key, KernelConfig{ConvStrategy: ConvIm2col, GemmMC: 8, Workers: 1})
	SetTuning(tbl)

	tuned := runConv(t, data, weight)
	hits, misses := tbl.Stats()
	if hits != 1 {
		t.Fatalf("hits = %d after one tuned launch", hits)
	}
	// A different shape misses.
	other := tensor.New(tensor.Float32, tensor.Shape{1, 5, 5, 3})
	other.FillUniform(tensor.NewRNG(5), -1, 1)
	runConv(t, other, weight)
	if _, misses = tbl.Stats(); misses != 1 {
		t.Fatalf("misses = %d after one untuned launch", misses)
	}

	snap := tbl.Snapshot()
	if len(snap) != 1 || snap[0].Hits != 1 || snap[0].Config.GemmMC != 8 {
		t.Fatalf("snapshot = %+v", snap)
	}

	// The tuned config must not change a single output bit.
	bb, tb := base.F32(), tuned.F32()
	for i := range bb {
		if math.Float32bits(bb[i]) != math.Float32bits(tb[i]) {
			t.Fatalf("tuned output differs at %d: %v vs %v", i, tb[i], bb[i])
		}
	}
}

// TestGemmMCBlockingBitwise pins the MC row-blocking knob: any block size
// must reproduce the unblocked result bit for bit (each output cell keeps
// one k-ascending accumulator regardless of row panel splits).
func TestGemmMCBlockingBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, d := range [][3]int{{13, 7, 11}, {64, 32, 9}, {31, 17, 23}} {
		m, n, k := d[0], d[1], d[2]
		a := make([]float32, m*k)
		b := make([]float32, n*k)
		for i := range a {
			a[i] = rng.Float32()*2 - 1
		}
		for i := range b {
			b[i] = rng.Float32()*2 - 1
		}
		bpack := make([]float32, gemmTiles(n, gemmNRF32)*gemmNRF32*k)
		packRHSF32(bpack, b, n, k, k)
		want := make([]float32, m*n)
		gemmF32Cfg(m, n, k, a, k, bpack, want, n, nil)
		for _, mc := range []int{1, 3, 4, 8, m - 1, m, m + 5} {
			if mc <= 0 {
				continue
			}
			got := make([]float32, m*n)
			gemmF32Cfg(m, n, k, a, k, bpack, got, n, &KernelConfig{GemmMC: mc})
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("m%d n%d k%d mc=%d: c[%d] = %v, want %v", m, n, k, mc, i, got[i], want[i])
				}
			}
		}
	}
}

func TestKernelConfigString(t *testing.T) {
	if s := (KernelConfig{}).String(); s != "default" {
		t.Errorf("default config renders %q", s)
	}
	cfg := KernelConfig{ConvStrategy: ConvDirect, GemmMC: 64, Workers: 2}
	if s := cfg.String(); s != "conv=direct mc=64 workers=2" {
		t.Errorf("config renders %q", s)
	}
	if fmt.Sprint(&cfg) == "" {
		t.Error("pointer form renders empty")
	}
}
