package topi

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/relay"
	"repro/internal/tensor"
)

// strategyShapes are the shapes im2colPays was derived on: convCases (among
// them the showcase models' small f32 layers) plus volumes and group widths
// beyond what a unit test should run.
var strategyShapes = append(append([]convCase(nil), convCases...),
	convCase{name: "4x4x8-oc8-k1", n: 1, h: 4, w: 4, c: 8, oc: 8, kh: 1, kw: 1, sh: 1, sw: 1, dh: 1, dw: 1, groups: 1},
	convCase{name: "4x4x4-oc4", n: 1, h: 4, w: 4, c: 4, oc: 4, kh: 3, kw: 3, sh: 1, sw: 1, dh: 1, dw: 1, groups: 1, pad: samePad},
	convCase{name: "32x32x32-oc1", n: 1, h: 32, w: 32, c: 32, oc: 1, kh: 3, kw: 3, sh: 1, sw: 1, dh: 1, dw: 1, groups: 1, pad: samePad},
	convCase{name: "32x32x32-oc2", n: 1, h: 32, w: 32, c: 32, oc: 2, kh: 3, kw: 3, sh: 1, sw: 1, dh: 1, dw: 1, groups: 1, pad: samePad},
	convCase{name: "32x32x32-oc32-g16", n: 1, h: 32, w: 32, c: 32, oc: 32, kh: 3, kw: 3, sh: 1, sw: 1, dh: 1, dw: 1, groups: 16, pad: samePad},
	convCase{name: "32x32x32-oc32-g4", n: 1, h: 32, w: 32, c: 32, oc: 32, kh: 3, kw: 3, sh: 1, sw: 1, dh: 1, dw: 1, groups: 4, pad: samePad},
	convCase{name: "depthwise-112x112x32", n: 1, h: 112, w: 112, c: 32, oc: 32, kh: 3, kw: 3, sh: 1, sw: 1, dh: 1, dw: 1, groups: 32, pad: samePad},
	convCase{name: "56x56x64-oc64-k1", n: 1, h: 56, w: 56, c: 64, oc: 64, kh: 1, kw: 1, sh: 1, sw: 1, dh: 1, dw: 1, groups: 1},
)

// BenchmarkConvStrategy times the direct and the im2col + GEMM kernel on the
// same shape, float32 and quantized — the measurement behind im2colPays:
//
//	go test ./internal/topi -run '^$' -bench ConvStrategy -benchtime 200ms
func BenchmarkConvStrategy(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	for _, cc := range strategyShapes {
		oh, ow := cc.outShape()
		shape := tensor.Shape{cc.n, oh, ow, cc.oc}
		name := fmt.Sprintf("%s/macs=%d", cc.name, cc.n*oh*ow*cc.oc*cc.kh*cc.kw*cc.c/cc.groups)

		data := tensor.New(tensor.Float32, tensor.Shape{cc.n, cc.h, cc.w, cc.c})
		weight := tensor.New(tensor.Float32, tensor.Shape{cc.oc, cc.kh, cc.kw, cc.c / cc.groups})
		qdata := tensor.New(tensor.UInt8, data.Shape)
		qweight := tensor.New(tensor.UInt8, weight.Shape)
		for i := range data.F32() {
			data.F32()[i] = rng.Float32()*2 - 1
			qdata.U8()[i] = uint8(rng.Intn(256))
		}
		for i := range weight.F32() {
			weight.F32()[i] = rng.Float32()*2 - 1
			qweight.U8()[i] = uint8(rng.Intn(256))
		}
		out := &relay.TensorType{Shape: shape, DType: tensor.Float32}
		qout := &relay.TensorType{Shape: shape, DType: tensor.Int32}
		dst, qdst := tensor.New(tensor.Float32, shape), tensor.New(tensor.Int32, shape)
		p := cc.params()

		for _, k := range []struct {
			name string
			run  func()
		}{
			{"f32/direct", func() { conv2DF32Direct(data, weight, p, out, dst, nil) }},
			{"f32/im2col", func() { conv2DF32Im2col(data, weight, p, out, dst, nil) }},
			{"qnn/direct", func() { conv2DQnnDirect(qdata, qweight, p, 128, 119, qout, qdst, nil) }},
			{"qnn/im2col", func() { conv2DQnnIm2col(qdata, qweight, p, 128, 119, qout, qdst, nil) }},
		} {
			b.Run(name+"/"+k.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.run()
				}
			})
		}
	}
}
