package models

import (
	"testing"

	"repro/internal/frontend/onnx"
	"repro/internal/frontend/torchscript"
)

// The two graph frontends parse bytes they did not write. Their property:
// any input yields an error or a module, never a panic. Each target is
// seeded with a real zoo artifact and the malformed nodes that used to
// panic.

// oneNode wraps a node in a graph over one NCHW input x with output y.
func oneNode(format, node string) []byte {
	if format == "onnx" {
		return []byte(`{"graph":{"input":[{"name":"x","shape":[1,3,8,8]}],"node":[` + node + `],"output":["y"]}}`)
	}
	return []byte(`{"inputs":[{"name":"x","shape":[1,3,8,8]}],"nodes":[` + node + `],"outputs":["y"]}`)
}

func FuzzFromONNX(f *testing.F) {
	blob, err := inceptionResNetV2(SizeLite)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	for _, node := range []string{
		`{"op_type":"Relu","input":[],"output":["y"]}`,
		`{"op_type":"Relu","input":["x"],"output":[]}`,
		`{"op_type":"MaxPool","input":["x"],"output":["y"],"attribute":{"pads":[0]}}`,
		`{"op_type":"Conv","input":["x"],"output":["y"]}`,
		`{"op_type":"Concat","input":["x","x"],"output":["y"],"attribute":{"axis":-1}}`,
	} {
		f.Add(oneNode("onnx", node))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := onnx.FromONNX(data); m == nil && err == nil {
			t.Fatal("neither a module nor an error")
		}
	})
}

func FuzzFromTorch(f *testing.F) {
	g, sd, err := traceDeePixBiS(SizeLite).Trace()
	if err != nil {
		f.Fatal(err)
	}
	blob, err := torchscript.MarshalGraph(g)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	for _, node := range []string{
		`{"op":"aten::mean","output":"y","attrs":{"dim":[2,3]}}`,
		`{"op":"aten::flatten","output":"y"}`,
		`{"op":"aten::softmax","output":"y"}`,
		`{"op":"aten::cat","inputs":["x","x"],"output":"y","attrs":{"dim":-1}}`,
	} {
		f.Add(oneNode("torchscript", node))
	}
	// A scalar reaches nn.batch_norm, whose type relation indexed its
	// channel axis unchecked.
	f.Add(oneNode("torchscript", `{"op":"aten::mean","inputs":["x"],"output":"s","attrs":{"dim":[0,1,2,3]}},`+
		`{"op":"aten::batch_norm","inputs":["s","bn.gamma.5","bn.beta.6","bn.mean.7","bn.var.8"],"output":"y"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := torchscript.UnmarshalGraph(data)
		if err != nil {
			return
		}
		if m, err := torchscript.FromTorch(g, sd); m == nil && err == nil {
			t.Fatal("neither a module nor an error")
		}
	})
}
