package topi

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
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
	// MobileNet's depthwise 3×3 at both strides and one of its pointwise
	// layers: the channel-vector direct row and the pair tile.
	convCase{name: "dw3x3-s1-56x56x64", n: 1, h: 56, w: 56, c: 64, oc: 64, kh: 3, kw: 3, sh: 1, sw: 1, dh: 1, dw: 1, groups: 64, pad: samePad},
	convCase{name: "dw3x3-s2-56x56x64", n: 1, h: 56, w: 56, c: 64, oc: 64, kh: 3, kw: 3, sh: 2, sw: 2, dh: 1, dw: 1, groups: 64, pad: samePad},
	convCase{name: "pw-28x28x128-oc128", n: 1, h: 28, w: 28, c: 128, oc: 128, kh: 1, kw: 1, sh: 1, sw: 1, dh: 1, dw: 1, groups: 1},
	// The lite SSD's pointwise layers, which carry most of a detect run's
	// GEMM MACs.
	convCase{name: "ssd-pw-24x24x8-oc16", n: 1, h: 24, w: 24, c: 8, oc: 16, kh: 1, kw: 1, sh: 1, sw: 1, dh: 1, dw: 1, groups: 1},
	convCase{name: "ssd-pw-24x24x16-oc16", n: 1, h: 24, w: 24, c: 16, oc: 16, kh: 1, kw: 1, sh: 1, sw: 1, dh: 1, dw: 1, groups: 1},
	convCase{name: "ssd-pw-12x12x32-oc32", n: 1, h: 12, w: 12, c: 32, oc: 32, kh: 1, kw: 1, sh: 1, sw: 1, dh: 1, dw: 1, groups: 1},
	convCase{name: "ssd-pw-6x6x64-oc64", n: 1, h: 6, w: 6, c: 64, oc: 64, kh: 1, kw: 1, sh: 1, sw: 1, dh: 1, dw: 1, groups: 1},
)

// ssdDepthwiseShapes are the lite SSD's six depthwise layers, 3×3 over 8 to
// 64 channels, the stride-2 ones padded below and right only.
var ssdDepthwiseShapes = []convCase{
	{name: "ssd-dw-48x48x8-s2", n: 1, h: 48, w: 48, c: 8, oc: 8, kh: 3, kw: 3, sh: 2, sw: 2, dh: 1, dw: 1, groups: 8, pad: [4]int{0, 0, 1, 1}},
	{name: "ssd-dw-24x24x16-s1", n: 1, h: 24, w: 24, c: 16, oc: 16, kh: 3, kw: 3, sh: 1, sw: 1, dh: 1, dw: 1, groups: 16, pad: samePad},
	{name: "ssd-dw-24x24x16-s2", n: 1, h: 24, w: 24, c: 16, oc: 16, kh: 3, kw: 3, sh: 2, sw: 2, dh: 1, dw: 1, groups: 16, pad: [4]int{0, 0, 1, 1}},
	{name: "ssd-dw-12x12x32-s1", n: 1, h: 12, w: 12, c: 32, oc: 32, kh: 3, kw: 3, sh: 1, sw: 1, dh: 1, dw: 1, groups: 32, pad: samePad},
	{name: "ssd-dw-12x12x32-s2", n: 1, h: 12, w: 12, c: 32, oc: 32, kh: 3, kw: 3, sh: 2, sw: 2, dh: 1, dw: 1, groups: 32, pad: [4]int{0, 0, 1, 1}},
	{name: "ssd-dw-6x6x64-s1", n: 1, h: 6, w: 6, c: 64, oc: 64, kh: 3, kw: 3, sh: 1, sw: 1, dh: 1, dw: 1, groups: 64, pad: samePad},
}

func init() { strategyShapes = append(strategyShapes, ssdDepthwiseShapes...) }

// BenchmarkConvStrategy times the direct kernel and the indirect GEMM on the
// same shape — float32, quantized, and quantized with the fused epilogue
// (bias, requantize, relu6 into uint8) — the measurement behind im2colPays.
// Each launch is prepared once, outside the timer, and runs into one output
// on a weight of its own, as a plan state's launch does. On a depthwise
// shape the direct rows time the depthwise row's launch, on any other the
// per-cell loop the rule no longer runs (perCellConvF32, perCellConvQnn),
// which has no parallel launch; so every row runs on one worker, and the
// table compares the kernels core for core:
//
//	go test ./internal/topi -run '^$' -bench ConvStrategy -benchtime 200ms
func BenchmarkConvStrategy(b *testing.B) {
	old := parallel.SetMaxWorkers(1)
	defer parallel.SetMaxWorkers(old)
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
		attrs, outQ := fusedQuantAttrs("relu6")
		fout := &relay.TensorType{Shape: shape, DType: tensor.UInt8, Quant: &outQ}
		fdst := tensor.New(tensor.UInt8, shape)
		fargs := []*tensor.Tensor{qdata, qweight, tensor.New(tensor.Int32, tensor.Shape{cc.oc})}
		e, err := newEpilogue("qnn.conv2d_fused", typesOf(fargs), attrs, fout)
		if err != nil {
			b.Fatal(err)
		}
		ep := e.bind(fargs)
		g := newConvGeom(p, data.Shape, weight.Shape, shape)
		depthwise := g.depthwise()
		f32Launch := func(im2col bool) func() {
			args := []*tensor.Tensor{data, weight.Clone()}
			l, err := newConvLaunchF32(typesOf(args), out, p, epilogueF32{}, forced(im2col))
			if err != nil {
				b.Fatal(err)
			}
			return func() { l.run(args, dst) }
		}
		qnnLaunch := func(out *relay.TensorType, dst *tensor.Tensor, im2col bool, ep *epilogue) func() {
			args := []*tensor.Tensor{qdata, qweight.Clone()}
			l, err := newConvLaunchQnn(typesOf(args), out, p, 128, 119, ep, forced(im2col))
			if err != nil {
				b.Fatal(err)
			}
			return func() { l.run(args, dst) }
		}
		f32Direct := func() { perCellConvF32(data, weight, p, out, epilogueF32{}) }
		qnnDirect := func() { perCellConvQnn(qdata, qweight, p, 128, 119, qout, nil) }
		fusedDirect := func() { perCellConvQnn(qdata, qweight, p, 128, 119, fout, &ep) }
		if depthwise {
			f32Direct, qnnDirect, fusedDirect = f32Launch(false), qnnLaunch(qout, qdst, false, nil), qnnLaunch(fout, fdst, false, &ep)
		}

		for _, k := range []struct {
			name string
			run  func()
		}{
			{"f32/direct", f32Direct},
			{"f32/indirect", f32Launch(true)},
			{"qnn/direct", qnnDirect},
			{"qnn/indirect", qnnLaunch(qout, qdst, true, nil)},
			{"qnn-fused/direct", fusedDirect},
			{"qnn-fused/indirect", qnnLaunch(fout, fdst, true, &ep)},
		} {
			b.Run(name+"/"+k.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.run()
				}
			})
		}
	}
}

// gemmShapes are the emotion model's f32 im2col GEMMs (m = one output row's
// pixels, n = output channels, k = 3·3·input channels), which carry most of
// a showcase frame's f32 multiply-adds.
var gemmShapes = []struct{ m, n, k int }{{44, 64, 288}, {20, 128, 576}, {8, 128, 1152}}

// BenchmarkGemmF32Shapes reports GFLOP/s (2·m·n·k per call) on gemmShapes
// for the dense launch — serial, and split over two workers, as a top-level
// call is — and for each f32 tile of indirectTileKernels this CPU runs,
// swept over the panels alone against the rows' one-segment table
// (newDenseTable). Every row but the split one pins one worker:
//
//	go test ./internal/topi -run '^$' -bench GemmF32Shapes -benchtime 200ms
func BenchmarkGemmF32Shapes(b *testing.B) {
	old := parallel.SetMaxWorkers(1)
	defer parallel.SetMaxWorkers(old)
	rng := rand.New(rand.NewSource(37))
	for _, s := range gemmShapes {
		a, bpack, _ := gemmF32Case(rng, s.m, s.n, s.k, s.k, s.n)
		tab := mustTable(newDenseTable[float32](s.m, s.k, s.k))
		c := make([]float32, s.m*s.n)
		nt := gemmTiles(s.n, gemmNR)
		flops := float64(2 * s.m * s.n * s.k)
		type row struct {
			name    string
			workers int
			run     func()
		}
		launch := func() { denseGemmF32(tab, a, bpack, c, s.m, s.n, s.k, s.n, epilogueF32{}) }
		rows := []row{{"dense", 1, launch}, {"dense/workers=2", 2, launch}}
		lo, hi := float32(math.Inf(-1)), float32(math.Inf(1))
		for _, kern := range indirectTileKernels {
			if kern.skip || nt%kern.panels != 0 {
				continue
			}
			rows = append(rows, row{kern.name, 1, func() {
				var acc [gemmMR * gemmWideNR]float32
				for jt := 0; jt < nt; jt += kern.panels {
					bp := bpack[jt*s.k*gemmNR : (jt+kern.panels)*s.k*gemmNR]
					for it := range tab.seg {
						kern.run(a, 0, nil, tab.offs[it*gemmMR:(it+1)*gemmMR], s.k, bp, nil, lo, hi, &acc)
					}
				}
			}})
		}
		for _, r := range rows {
			b.Run(fmt.Sprintf("%dx%dx%d/%s", s.m, s.n, s.k, r.name), func(b *testing.B) {
				parallel.SetMaxWorkers(r.workers)
				defer parallel.SetMaxWorkers(1)
				for i := 0; i < b.N; i++ {
					r.run()
				}
				b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}
