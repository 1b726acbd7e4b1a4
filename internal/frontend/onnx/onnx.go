// Package onnx implements the ONNX frontend (and, through ONNX export, the
// MXNet path the paper's abstract lists). The serialized form is a JSON
// rendition of an ONNX ModelProto — graph nodes with op_type / inputs /
// outputs / attributes, typed value_info inputs, and initializers embedded
// as base64 tensors — see DESIGN.md §2 for the protobuf→JSON substitution.
//
// ONNX models are NCHW/OIHW; the importer lowers through the shared
// frontend.Graph, which emits an NHWC relay module with OHWI convolution
// weights and remapped channel axes, exactly like the TorchScript frontend.
package onnx

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"

	"repro/internal/frontend"
	"repro/internal/relay"
	"repro/internal/tensor"
)

// ModelProto is the top-level serialized model.
type ModelProto struct {
	IRVersion    int        `json:"ir_version"`
	ProducerName string     `json:"producer_name"`
	Graph        GraphProto `json:"graph"`
}

// GraphProto is the graph body.
type GraphProto struct {
	Name        string             `json:"name"`
	Node        []NodeProto        `json:"node"`
	Input       []ValueInfoProto   `json:"input"`
	Output      []string           `json:"output"`
	Initializer []InitializerProto `json:"initializer"`
}

// NodeProto is one operator node.
type NodeProto struct {
	OpType    string                 `json:"op_type"`
	Input     []string               `json:"input"`
	Output    []string               `json:"output"`
	Attribute map[string]interface{} `json:"attribute,omitempty"`
}

// ValueInfoProto declares a graph input.
type ValueInfoProto struct {
	Name  string `json:"name"`
	Shape []int  `json:"shape"`
	DType string `json:"elem_type"`
}

// InitializerProto is an embedded weight tensor (base64 of the shared binary
// tensor format).
type InitializerProto struct {
	Name string `json:"name"`
	Raw  string `json:"raw_data"`
}

// Marshal serializes a model.
func Marshal(m *ModelProto) ([]byte, error) { return json.Marshal(m) }

// EncodeInitializer packs a tensor for embedding.
func EncodeInitializer(name string, t *tensor.Tensor) (InitializerProto, error) {
	var buf bytes.Buffer
	if err := t.Serialize(&buf); err != nil {
		return InitializerProto{}, err
	}
	return InitializerProto{Name: name, Raw: base64.StdEncoding.EncodeToString(buf.Bytes())}, nil
}

func decodeInitializer(ip InitializerProto) (*tensor.Tensor, error) {
	raw, err := base64.StdEncoding.DecodeString(ip.Raw)
	if err != nil {
		return nil, fmt.Errorf("onnx: initializer %q: %w", ip.Name, err)
	}
	return tensor.ReadFrom(bytes.NewReader(raw))
}

func nodeAttrInt(n NodeProto, key string, def int) int {
	if v, ok := n.Attribute[key].(float64); ok {
		return int(v)
	}
	return def
}

func nodeAttrFloat(n NodeProto, key string, def float64) float64 {
	if v, ok := n.Attribute[key].(float64); ok {
		return v
	}
	return def
}

func nodeAttrInts(n NodeProto, key string, def []int) []int {
	v, ok := n.Attribute[key].([]interface{})
	if !ok {
		return def
	}
	out := make([]int, len(v))
	for i, x := range v {
		f, ok := x.(float64)
		if !ok {
			return def
		}
		out[i] = int(f)
	}
	return out
}

// FromONNX parses and imports a serialized model.
func FromONNX(data []byte) (*relay.Module, error) {
	var mp ModelProto
	if err := json.Unmarshal(data, &mp); err != nil {
		return nil, fmt.Errorf("onnx: bad model json: %w", err)
	}
	return Import(&mp)
}

// Import lowers a parsed model to relay.
func Import(mp *ModelProto) (*relay.Module, error) {
	g := &mp.Graph
	params := map[string]*tensor.Tensor{}
	for _, ip := range g.Initializer {
		t, err := decodeInitializer(ip)
		if err != nil {
			return nil, err
		}
		params[ip.Name] = t
	}
	fg := frontend.NewGraph(params)
	for _, in := range g.Input {
		if _, isParam := params[in.Name]; isParam {
			continue // ONNX lists initializers among inputs too
		}
		if err := fg.Input(in.Name, in.Shape); err != nil {
			return nil, fmt.Errorf("onnx: %w", err)
		}
	}
	for i, n := range g.Node {
		if err := convert(fg, n); err != nil {
			return nil, fmt.Errorf("onnx: node %d (%s): %w", i, n.OpType, err)
		}
	}
	return fg.Finish("onnx", g.Output)
}

// listAttrs are the list attributes the importer reads and their lengths;
// pads is [top, left, bottom, right].
var listAttrs = []struct {
	key string
	n   int
}{{"kernel_shape", 2}, {"strides", 2}, {"pads", 4}}

func convert(g *frontend.Graph, n NodeProto) error {
	if len(n.Output) != 1 {
		return fmt.Errorf("expects 1 output, got %d", len(n.Output))
	}
	for _, a := range listAttrs {
		if v, ok := n.Attribute[a.key]; ok && len(nodeAttrInts(n, a.key, nil)) != a.n {
			return fmt.Errorf("attribute %s = %v: want %d ints", a.key, v, a.n)
		}
	}
	in, out := n.Input, n.Output[0]
	switch n.OpType {
	case "Conv":
		return g.Conv(in, out, relay.Attrs{"strides": nodeAttrInts(n, "strides", []int{1, 1}),
			"padding": nodeAttrInts(n, "pads", []int{0, 0, 0, 0}), "groups": nodeAttrInt(n, "group", 1)})
	case "Relu":
		return g.Unary(in, out, relay.OpReLU, nil)
	case "LeakyRelu":
		return g.Unary(in, out, relay.OpLeakyReLU, relay.Attrs{"alpha": nodeAttrFloat(n, "alpha", 0.01)})
	case "Sigmoid":
		return g.Unary(in, out, relay.OpSigmoid, nil)
	case "Tanh":
		return g.Unary(in, out, relay.OpTanh, nil)
	case "Clip":
		return g.Unary(in, out, relay.OpClip, relay.Attrs{
			"a_min": nodeAttrFloat(n, "min", 0), "a_max": nodeAttrFloat(n, "max", 6)})
	case "Dropout":
		return g.Unary(in, out, relay.OpDropout, nil)
	case "MaxPool", "AveragePool":
		k := nodeAttrInts(n, "kernel_shape", []int{2, 2})
		op := relay.OpMaxPool2D
		if n.OpType == "AveragePool" {
			op = relay.OpAvgPool2D
		}
		return g.Unary(in, out, op, relay.Attrs{
			"pool_size": k, "strides": nodeAttrInts(n, "strides", k),
			"padding": nodeAttrInts(n, "pads", []int{0, 0, 0, 0})})
	case "GlobalAveragePool":
		return g.Unary(in, out, relay.OpGlobalAvgPool, nil)
	case "Add":
		return g.Binary(in, out, relay.OpAdd)
	case "Mul":
		return g.Binary(in, out, relay.OpMultiply)
	case "Concat":
		return g.Concat(in, out, nodeAttrInt(n, "axis", 1))
	case "Softmax":
		return g.Unary(in, out, relay.OpSoftmax, nil)
	case "Flatten":
		return g.Flatten(in, out)
	case "Gemm":
		if nodeAttrInt(n, "transB", 1) != 1 {
			return fmt.Errorf("Gemm with transB=0 unsupported")
		}
		return g.Dense(in, out)
	case "BatchNormalization":
		return g.BatchNorm(in, out, relay.Attrs{"epsilon": nodeAttrFloat(n, "epsilon", 1e-5)})
	case "Upsample":
		return g.Unary(in, out, relay.OpUpsampling,
			relay.Attrs{"scale": nodeAttrInt(n, "scale", 2), "method": "nearest"})
	}
	return fmt.Errorf("ONNX operator %q not supported by the importer", n.OpType)
}
