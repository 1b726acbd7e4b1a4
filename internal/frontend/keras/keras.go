// Package keras implements the Keras frontend: it parses the JSON
// architecture produced by Keras' model.to_json() (Sequential models) plus a
// binary weight blob, and emits a relay module — the relay.frontend.from_keras
// path the paper's emotion-detection model takes (Listing 4).
//
// The weight blob is this stack's equivalent of an HDF5 weight file: a
// sequence of (name, tensor) records in the shared binary tensor format.
package keras

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/frontend"
	"repro/internal/relay"
	"repro/internal/tensor"
)

// ModelConfig is the top-level structure of a serialized Keras model.
type ModelConfig struct {
	ClassName string `json:"class_name"` // "Sequential"
	Config    struct {
		Name   string        `json:"name"`
		Layers []LayerConfig `json:"layers"`
	} `json:"config"`
}

// LayerConfig is one layer entry.
type LayerConfig struct {
	ClassName string                 `json:"class_name"`
	Config    map[string]interface{} `json:"config"`
}

func (l LayerConfig) name() string {
	if n, ok := l.Config["name"].(string); ok {
		return n
	}
	return ""
}

func (l LayerConfig) str(key, def string) string {
	if v, ok := l.Config[key].(string); ok {
		return v
	}
	return def
}

func (l LayerConfig) number(key string, def float64) float64 {
	if v, ok := l.Config[key].(float64); ok {
		return v
	}
	return def
}

// intPair reads a positive (height, width) pair given as one number or two.
func (l LayerConfig) intPair(key string, def int) (int, int, error) {
	v, ok := l.Config[key]
	if !ok {
		return def, def, nil
	}
	switch vv := v.(type) {
	case float64:
		if vv >= 1 {
			return int(vv), int(vv), nil
		}
	case []interface{}:
		if len(vv) == 2 {
			a, ok1 := vv[0].(float64)
			b, ok2 := vv[1].(float64)
			if ok1 && ok2 && a >= 1 && b >= 1 {
				return int(a), int(b), nil
			}
		}
	}
	return 0, 0, fmt.Errorf("keras: layer attr %q has bad value %v", key, v)
}

// WeightStore holds named weight tensors (the HDF5 stand-in).
type WeightStore map[string]*tensor.Tensor

// SaveWeights writes the store as a binary blob (sorted by name for
// determinism).
func (ws WeightStore) SaveWeights(w io.Writer) error {
	names := make([]string, 0, len(ws))
	for n := range ws {
		names = append(names, n)
	}
	sortStrings(names)
	if err := writeU32(w, uint32(len(names))); err != nil {
		return err
	}
	for _, n := range names {
		if err := writeString(w, n); err != nil {
			return err
		}
		if err := ws[n].Serialize(w); err != nil {
			return err
		}
	}
	return nil
}

// LoadWeights reads a weight blob.
func LoadWeights(r io.Reader) (WeightStore, error) {
	n, err := readU32(r)
	if err != nil {
		return nil, err
	}
	ws := WeightStore{}
	for i := uint32(0); i < n; i++ {
		name, err := readString(r)
		if err != nil {
			return nil, err
		}
		t, err := tensor.ReadFrom(r)
		if err != nil {
			return nil, fmt.Errorf("keras: weight %q: %w", name, err)
		}
		ws[name] = t
	}
	return ws, nil
}

// FromKeras parses a model JSON + weights into a relay module, mirroring
// relay.frontend.from_keras(model, shape_dict). Keras layers are NHWC
// natively, so no layout conversion is needed.
func FromKeras(configJSON []byte, weights WeightStore) (*relay.Module, error) {
	var cfg ModelConfig
	if err := json.Unmarshal(configJSON, &cfg); err != nil {
		return nil, fmt.Errorf("keras: bad model json: %w", err)
	}
	if cfg.ClassName != "Sequential" {
		return nil, fmt.Errorf("keras: only Sequential models are supported, got %q", cfg.ClassName)
	}
	b := &builder{weights: weights}
	return b.build(cfg)
}

type builder struct {
	weights WeightStore
	cur     relay.Expr
	curType *relay.TensorType
}

func (b *builder) weight(layer, suffix string, want tensor.Shape) (*relay.Constant, error) {
	key := layer + "/" + suffix
	t, ok := b.weights[key]
	if !ok {
		return nil, fmt.Errorf("keras: missing weight %q", key)
	}
	if want != nil && !t.Shape.Equal(want) {
		return nil, fmt.Errorf("keras: weight %q has shape %s, want %s", key, t.Shape, want)
	}
	return relay.Const(t), nil
}

func (b *builder) infer() error {
	ty, err := relay.InferTypes(b.cur)
	if err != nil {
		return err
	}
	tt, ok := ty.(*relay.TensorType)
	if !ok {
		return fmt.Errorf("keras: non-tensor intermediate %s", ty)
	}
	b.curType = tt
	return nil
}

// apply replaces the running value by op over it (and any further args).
func (b *builder) apply(op *relay.Op, attrs relay.Attrs, args ...relay.Expr) error {
	b.cur = relay.NewCall(op, append([]relay.Expr{b.cur}, args...), attrs)
	return b.infer()
}

func (b *builder) applyActivation(act string) error {
	switch act {
	case "", "linear":
		return nil
	case "relu":
		return b.apply(relay.OpReLU, nil)
	case "sigmoid":
		return b.apply(relay.OpSigmoid, nil)
	case "tanh":
		return b.apply(relay.OpTanh, nil)
	case "softmax":
		return b.apply(relay.OpSoftmax, nil)
	}
	return fmt.Errorf("keras: unsupported activation %q", act)
}

func (b *builder) build(cfg ModelConfig) (*relay.Module, error) {
	if len(cfg.Config.Layers) == 0 {
		return nil, fmt.Errorf("keras: model has no layers")
	}
	var input *relay.Var
	for i, layer := range cfg.Config.Layers {
		// The first layer may carry batch_input_shape.
		if input == nil {
			shape, err := layerInputShape(layer)
			if err != nil {
				return nil, err
			}
			if shape == nil {
				return nil, fmt.Errorf("keras: first layer %q has no batch_input_shape", layer.ClassName)
			}
			input = relay.NewVar("input_1", relay.TType(tensor.Float32, shape...))
			b.cur = input
			if err := b.infer(); err != nil {
				return nil, err
			}
		}
		if err := b.addLayer(layer); err != nil {
			return nil, fmt.Errorf("keras: layer %d (%s): %w", i, layer.ClassName, err)
		}
	}
	return frontend.Finish("keras", []*relay.Var{input}, []relay.Expr{b.cur}, nil)
}

func layerInputShape(layer LayerConfig) ([]int, error) {
	v, ok := layer.Config["batch_input_shape"]
	if !ok {
		return nil, nil
	}
	arr, ok := v.([]interface{})
	if !ok {
		return nil, fmt.Errorf("keras: bad batch_input_shape %v", v)
	}
	shape := make([]int, len(arr))
	for i, d := range arr {
		switch dv := d.(type) {
		case nil:
			shape[i] = 1 // batch dimension: fix to 1
		case float64:
			shape[i] = int(dv)
		default:
			return nil, fmt.Errorf("keras: bad batch_input_shape entry %v", d)
		}
	}
	return shape, nil
}

func (b *builder) addLayer(layer LayerConfig) error {
	switch layer.ClassName {
	case "InputLayer":
		return nil
	case "Conv2D", "DepthwiseConv2D":
		return b.addConv(layer)
	case "MaxPooling2D", "AveragePooling2D":
		return b.addPool(layer)
	case "GlobalAveragePooling2D":
		if err := b.apply(relay.OpGlobalAvgPool, nil); err != nil {
			return err
		}
		// Keras returns (N, C), not (N,1,1,C).
		return b.apply(relay.OpBatchFlatten, nil)
	case "Flatten":
		return b.apply(relay.OpBatchFlatten, nil)
	case "Dense":
		return b.addDense(layer)
	case "Dropout":
		return b.apply(relay.OpDropout, relay.Attrs{"rate": layer.number("rate", 0.5)})
	case "Activation":
		return b.applyActivation(layer.str("activation", "linear"))
	case "BatchNormalization":
		return b.addBatchNorm(layer)
	case "ReLU":
		return b.apply(relay.OpReLU, nil)
	}
	return fmt.Errorf("unsupported layer class %q", layer.ClassName)
}

// window reads a spatial layer's window (key, default kdef), its strides
// (default sdef, or the window's height when sdef is 0) and its padding,
// which for "same" is TensorFlow's rule over the running input.
func (b *builder) window(layer LayerConfig, key string, kdef, sdef int) (k, s, pad []int, err error) {
	if len(b.curType.Shape) != 4 {
		return nil, nil, nil, fmt.Errorf("needs 4-D input, have %s", b.curType.Shape)
	}
	kh, kw, err := layer.intPair(key, kdef)
	if err != nil {
		return nil, nil, nil, err
	}
	if sdef == 0 {
		sdef = kh
	}
	sh, sw, err := layer.intPair("strides", sdef)
	if err != nil {
		return nil, nil, nil, err
	}
	pad = []int{0, 0}
	if layer.str("padding", "valid") == "same" {
		pad = frontend.SamePad(b.curType.Shape[1], b.curType.Shape[2], kh, kw, sh, sw)
	}
	return []int{kh, kw}, []int{sh, sw}, pad, nil
}

// addConv lowers Conv2D and DepthwiseConv2D (one filter per input channel:
// groups = channels).
func (b *builder) addConv(layer LayerConfig) error {
	k, strides, pad, err := b.window(layer, "kernel_size", 3, 1)
	if err != nil {
		return err
	}
	inC := b.curType.Shape[3]
	attrs := relay.Attrs{"strides": strides, "padding": pad}
	filters := int(layer.number("filters", 0))
	kernel, shape := "kernel", tensor.Shape{filters, k[0], k[1], inC}
	if layer.ClassName == "DepthwiseConv2D" {
		filters, kernel, shape = inC, "depthwise_kernel", tensor.Shape{inC, k[0], k[1], 1}
		attrs["groups"] = inC
	}
	w, err := b.weight(layer.name(), kernel, shape)
	if err != nil {
		return err
	}
	if err := b.apply(relay.OpConv2D, attrs, w); err != nil {
		return err
	}
	return b.biasActivation(layer, filters)
}

// biasActivation adds a layer's optional bias and its activation.
func (b *builder) biasActivation(layer LayerConfig, units int) error {
	if useBias(layer) {
		bias, err := b.weight(layer.name(), "bias", tensor.Shape{units})
		if err != nil {
			return err
		}
		if err := b.apply(relay.OpBiasAdd, nil, bias); err != nil {
			return err
		}
	}
	return b.applyActivation(layer.str("activation", "linear"))
}

func (b *builder) addPool(layer LayerConfig) error {
	k, strides, pad, err := b.window(layer, "pool_size", 2, 0)
	if err != nil {
		return err
	}
	op := relay.OpMaxPool2D
	if layer.ClassName == "AveragePooling2D" {
		op = relay.OpAvgPool2D
	}
	return b.apply(op, relay.Attrs{"pool_size": k, "strides": strides, "padding": pad})
}

func (b *builder) addDense(layer LayerConfig) error {
	units := int(layer.number("units", 0))
	if len(b.curType.Shape) != 2 {
		return fmt.Errorf("Dense needs 2-D input, have %s (add Flatten)", b.curType.Shape)
	}
	w, err := b.weight(layer.name(), "kernel", tensor.Shape{units, b.curType.Shape[1]})
	if err != nil {
		return err
	}
	if err := b.apply(relay.OpDense, nil, w); err != nil {
		return err
	}
	return b.biasActivation(layer, units)
}

func (b *builder) addBatchNorm(layer LayerConfig) error {
	c := b.curType.Shape[len(b.curType.Shape)-1]
	stats := make([]relay.Expr, 4)
	for i, suffix := range []string{"gamma", "beta", "moving_mean", "moving_variance"} {
		w, err := b.weight(layer.name(), suffix, tensor.Shape{c})
		if err != nil {
			return err
		}
		stats[i] = w
	}
	return b.apply(relay.OpBatchNorm, relay.Attrs{"epsilon": layer.number("epsilon", 1e-3)}, stats...)
}

func useBias(layer LayerConfig) bool {
	if v, ok := layer.Config["use_bias"].(bool); ok {
		return v
	}
	return true
}
