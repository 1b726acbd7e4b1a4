package topi

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/relay"
	"repro/internal/tensor"
)

// panelConvAttrs describes a convolution the built-in rule sends to im2col
// under one group and under two: an 8×8 image, 3×3 "same", 8 filters of 4
// channels per group.
func panelConvAttrs(groups int, zpK int) relay.Attrs {
	return relay.Attrs{
		"strides": []int{1, 1}, "dilation": []int{1, 1}, "padding": []int{1, 1, 1, 1},
		"groups": groups, "input_zero_point": 128, "kernel_zero_point": zpK,
		"input_scale": 0.02, "kernel_scale": 0.4,
	}
}

// TestWeightPanelsMismatchPacksAfresh: a weight's panels are stored for the
// grouping and zero point of its first im2col launch. A launch of the same
// weight under another grouping or kernel_zero_point packs afresh and must
// give exactly what a fresh copy of the weight gives, without replacing the
// stored panels.
func TestWeightPanelsMismatchPacksAfresh(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	wq := tensor.New(tensor.UInt8, tensor.Shape{8, 3, 3, 4})
	for i := range wq.U8() {
		wq.U8()[i] = uint8(rng.Intn(256))
	}
	wf := drawF32(rng, tensor.Shape{8, 3, 3, 4})
	launches := []struct{ groups, zpK int }{{1, 119}, {1, 3}, {2, 119}, {2, 3}, {1, 119}}
	var storedQ, storedF any
	for i, l := range launches {
		dq := tensor.New(tensor.UInt8, tensor.Shape{1, 8, 8, 4 * l.groups})
		for j := range dq.U8() {
			dq.U8()[j] = uint8(rng.Intn(256))
		}
		df := drawF32(rng, tensor.Shape{1, 8, 8, 4 * l.groups})
		attrs := panelConvAttrs(l.groups, l.zpK)

		got := run(t, "qnn.conv2d", []*tensor.Tensor{dq, wq}, attrs).I32()
		want := run(t, "qnn.conv2d", []*tensor.Tensor{dq, wq.Clone()}, attrs).I32()
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("qnn.conv2d launch %d (groups %d, kernel zp %d): out[%d] = %d, fresh weight gives %d",
					i, l.groups, l.zpK, j, got[j], want[j])
			}
		}
		gotF := run(t, "nn.conv2d", []*tensor.Tensor{df, wf}, attrs).F32()
		wantF := run(t, "nn.conv2d", []*tensor.Tensor{df, wf.Clone()}, attrs).F32()
		if j, ok := sameF32Bits(gotF, wantF); !ok {
			t.Fatalf("nn.conv2d launch %d (groups %d): out[%d] = %v, fresh weight gives %v", i, l.groups, j, gotF[j], wantF[j])
		}

		if i == 0 {
			storedQ, storedF = wq.Derived(), wf.Derived()
			if storedQ == nil || storedF == nil {
				t.Fatalf("the first im2col launch stored no panels (quantized %v, float %v)", storedQ, storedF)
			}
		}
		if wq.Derived() != storedQ || wf.Derived() != storedF {
			t.Fatalf("launch %d (groups %d, kernel zp %d) replaced the weight's stored panels", i, l.groups, l.zpK)
		}
	}
}

// TestWeightPanelsConcurrentFirstPack: goroutines that launch the same im2col
// convolution on a weight nobody has packed yet race to pack and store its
// panels. Every one must get the same bits (go test -race checks the slot).
func TestWeightPanelsConcurrentFirstPack(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	data := drawF32(rng, tensor.Shape{1, 8, 8, 4})
	w := drawF32(rng, tensor.Shape{8, 3, 3, 4})
	attrs := panelConvAttrs(1, 0)
	out := &relay.TensorType{Shape: tensor.Shape{1, 8, 8, 8}, DType: tensor.Float32}
	want := run(t, "nn.conv2d", []*tensor.Tensor{data, w.Clone()}, attrs).F32()

	const workers = 8
	got := make([]*tensor.Tensor, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], errs[g] = Run("nn.conv2d", []*tensor.Tensor{data, w}, attrs, out)
		}(g)
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if j, ok := sameF32Bits(got[g].F32(), want); !ok {
			t.Fatalf("goroutine %d: out[%d] = %v, want %v", g, j, got[g].F32()[j], want[j])
		}
	}
	if w.Derived() == nil {
		t.Fatal("no goroutine stored the weight's panels")
	}
}
