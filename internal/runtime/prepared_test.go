package runtime

import (
	"testing"

	"repro/internal/models"
)

// preparedBytesBound is, per lite zoo model, at most how many bytes its
// plan state's prepared launches may hold — the convolutions' and dense
// layers' offset tables and zero rows, and the quantized depthwise
// layers' tap tables and zero-point rows — built TVM-only or BYOC: the
// measured value, the same both ways, rounded up to the next KiB.
var preparedBytesBound = map[string]int{
	"anti-spoofing":         7 << 10,
	"densenet":              23 << 10,
	"emotion":               5 << 10,
	"inception resnet v2":   23 << 10,
	"inception v3":          22 << 10,
	"inception v3 (quant)":  17 << 10,
	"inception v4":          22 << 10,
	"mobilenet ssd (quant)": 6 << 10,
	"mobilenet v1":          5 << 10,
	"mobilenet v1 (quant)":  7 << 10,
	"mobilenet v2":          10 << 10,
	"mobilenet v2 (quant)":  13 << 10,
	"nasnet":                10 << 10,
	"yolov3":                32 << 10,
}

// TestPreparedBytes bounds what a plan state prepares for each lite zoo
// model, TVM-only (one topi launch per node, sub-plans included) and BYOC
// (one launch per stage of each region's sub-plan besides). A table
// grows with the output row's width and the filter's taps, not with the
// image's height, so it stays a few KiB a layer.
func TestPreparedBytes(t *testing.T) {
	for _, name := range models.Names() {
		spec, err := models.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := spec.Build(models.SizeLite)
		if err != nil {
			t.Fatal(err)
		}
		var got [2]int
		for i, opts := range []BuildOptions{{OptLevel: 3}, {OptLevel: 3, UseNIR: true}} {
			lib, err := Build(m, opts)
			if err != nil {
				t.Fatal(err)
			}
			st, err := NewGraphModule(lib).planState()
			if err != nil {
				t.Fatal(err)
			}
			got[i] = st.preparedBytes()
		}
		t.Logf("%s: %d bytes TVM-only, %d BYOC", name, got[0], got[1])
		bound, ok := preparedBytesBound[name]
		if !ok {
			t.Errorf("%s: no bound for its prepared bytes (%d TVM-only, %d BYOC)", name, got[0], got[1])
			continue
		}
		for i, kind := range []string{"TVM-only", "BYOC"} {
			if got[i] > bound {
				t.Errorf("%s %s: the plan state prepares %d bytes, want at most %d", name, kind, got[i], bound)
			}
		}
	}
}
