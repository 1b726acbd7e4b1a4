package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/relay"
	"repro/internal/runtime"
	"repro/internal/tensor"
	"repro/internal/topi"
)

// kernelRow maps one profiled executor span to its per-layer row: external
// regions run inside the Neuron runtime, the rest are host TOPI kernels
// grouped by what dominates them.
func kernelRow(cat, label string) string {
	switch {
	case cat == "external":
		return "neuron.execute_ms"
	case strings.Contains(label, "qnn."):
		return "topi.qnn_ms"
	case strings.Contains(label, "conv2d"):
		return "topi.conv_ms"
	case strings.Contains(label, "dense"):
		return "topi.dense_ms"
	}
	return "topi.other_ms"
}

// kernelShares runs profileRuns profiled inferences of lib and adds the mean
// per-inference milliseconds of each kernel row, scaled by weight, to out.
// It uses GraphModule.SetProfiling + TraceSpans, the executor's own public
// per-node spans; the sub-spans of fused kernels are skipped so nothing is
// counted twice.
func kernelShares(lib *runtime.Lib, input string, in *tensor.Tensor, weight float64, out map[string]float64) error {
	gm := runtime.NewGraphModule(lib)
	gm.SetProfiling(true)
	gm.SetInput(input, in)
	for i := 0; i < profileRuns; i++ {
		if err := gm.Run(); err != nil {
			return err
		}
		addSpanShares(gm, weight/profileRuns, out)
	}
	return nil
}

func addSpanShares(gm *runtime.GraphModule, weight float64, out map[string]float64) {
	for _, sp := range gm.TraceSpans() {
		if sp.Cat == "fused-op" {
			continue
		}
		out[kernelRow(sp.Cat, sp.Name)] += weight * float64(sp.Dur) / 1e3
	}
}

// standaloneRuns is how many times each stand-alone kernel runs (median).
const standaloneRuns = 7

// standaloneKernels times topi.Run on the four shapes the legacy
// bench_test.go kernel benchmarks use, so a kernel change can be seen apart
// from the executor around it.
func standaloneKernels(rec *recorder, out map[string]float64) error {
	q := tensor.QuantParams{Scale: 0.02, ZeroPoint: 128}
	wq := tensor.QuantParams{Scale: 0.01, ZeroPoint: 128}
	outQ := tensor.QuantParams{Scale: 0.04, ZeroPoint: 7}

	data := tensor.New(tensor.Float32, tensor.Shape{1, 56, 56, 64})
	data.FillUniform(tensor.NewRNG(1), -1, 1)
	weight := tensor.New(tensor.Float32, tensor.Shape{64, 3, 3, 64})
	weight.FillUniform(tensor.NewRNG(2), -1, 1)
	convAttrs := relay.Attrs{"strides": []int{1, 1}, "padding": []int{1, 1}}

	qdata := tensor.New(tensor.UInt8, tensor.Shape{1, 56, 56, 64})
	qdata.Quant = &q
	weightF := tensor.New(tensor.Float32, tensor.Shape{64, 3, 3, 64})
	weightF.FillUniform(tensor.NewRNG(2), -0.5, 0.5)
	qweight := weightF.QuantizeTo(tensor.UInt8, wq)
	qAttrs := relay.Attrs{
		"strides": []int{1, 1}, "padding": []int{1, 1},
		"input_scale": q.Scale, "input_zero_point": 128,
		"kernel_scale": wq.Scale, "kernel_zero_point": 128,
	}
	fusedAttrs := relay.Attrs{
		"requant_input_scale":       q.Scale * wq.Scale,
		"requant_input_zero_point":  0,
		"requant_output_scale":      outQ.Scale,
		"requant_output_zero_point": int(outQ.ZeroPoint),
		"fused_activation":          "relu",
	}
	for k, v := range qAttrs {
		fusedAttrs[k] = v
	}

	ddata := tensor.New(tensor.Float32, tensor.Shape{8, 1024})
	ddata.FillUniform(tensor.NewRNG(1), -1, 1)
	dweight := tensor.New(tensor.Float32, tensor.Shape{1000, 1024})
	dweight.FillUniform(tensor.NewRNG(2), -1, 1)

	cases := []struct {
		metric, op string
		args       []*tensor.Tensor
		attrs      relay.Attrs
		outTy      *relay.TensorType
	}{
		{"topi.conv2d_f32_ms", "nn.conv2d", []*tensor.Tensor{data, weight}, convAttrs,
			relay.TType(tensor.Float32, 1, 56, 56, 64)},
		{"topi.qnn_conv2d_ms", "qnn.conv2d", []*tensor.Tensor{qdata, qweight}, qAttrs,
			&relay.TensorType{Shape: tensor.Shape{1, 56, 56, 64}, DType: tensor.Int32,
				Quant: &tensor.QuantParams{Scale: q.Scale * wq.Scale}}},
		{"topi.qnn_conv2d_fused_ms", "qnn.conv2d_fused",
			[]*tensor.Tensor{qdata, qweight, tensor.New(tensor.Int32, tensor.Shape{64})}, fusedAttrs,
			&relay.TensorType{Shape: tensor.Shape{1, 56, 56, 64}, DType: tensor.UInt8, Quant: &outQ}},
		{"topi.dense_f32_ms", "nn.dense", []*tensor.Tensor{ddata, dweight}, relay.Attrs{"units": 1000},
			relay.TType(tensor.Float32, 8, 1000)},
	}
	for _, c := range cases {
		var lat []float64
		for i := 0; i < standaloneRuns; i++ {
			start := time.Now()
			_, err := topi.Run(c.op, c.args, c.attrs, c.outTy)
			dur := time.Since(start)
			if err != nil {
				return fmt.Errorf("stand-alone %s: %w", c.op, err)
			}
			rec.emit(c.metric, "", rowLayers, i, start, dur)
			lat = append(lat, ms(dur))
		}
		out[c.metric] = median(lat)
	}
	return nil
}
