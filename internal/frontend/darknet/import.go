package darknet

import (
	"fmt"
	"io"

	"repro/internal/frontend"
	"repro/internal/relay"
	"repro/internal/tensor"
)

// FromDarknet imports a parsed .cfg + .weights pair into a relay module —
// relay.frontend.from_darknet of Listing 3. Darknet is NCHW/OIHW; the
// importer produces an NHWC module (weights permuted at import, channel
// concat/shortcut axes remapped). YOLO head sections lower to
// vision.yolo_output, which is outside the Neuron op set — exactly why the
// paper's object-detection model has no NeuroPilot-only statistics.
func FromDarknet(cfgText string, weights io.Reader) (*relay.Module, error) {
	sections, err := ParseCfg(cfgText)
	if err != nil {
		return nil, err
	}
	wr, err := NewWeightsReader(weights)
	if err != nil {
		return nil, err
	}
	net := sections[0]
	h := net.Int("height", 416)
	w := net.Int("width", 416)
	c := net.Int("channels", 3)
	input := relay.NewVar("data", relay.TType(tensor.Float32, 1, h, w, c))

	imp := &dkImporter{wr: wr}
	cur := relay.Expr(input)
	var outputs []relay.Expr
	for i, sec := range sections[1:] {
		var out relay.Expr
		var err error
		switch sec.Name {
		case "convolutional":
			out, err = imp.conv(sec, cur)
		case "maxpool":
			out = maxpool(sec, cur)
		case "upsample":
			out = relay.NewCall(relay.OpUpsampling, []relay.Expr{cur},
				relay.Attrs{"scale": sec.Int("stride", 2), "method": "nearest"})
		case "route":
			out, err = imp.route(sec, i)
		case "shortcut":
			out, err = imp.shortcut(sec, cur, i)
		case "yolo":
			out, err = yolo(sec, cur)
			outputs = append(outputs, out)
		case "avgpool":
			out = relay.NewCall(relay.OpGlobalAvgPool, []relay.Expr{cur}, nil)
		default:
			err = fmt.Errorf("unsupported section [%s]", sec.Name)
		}
		if err == nil {
			_, err = relay.InferTypes(out)
		}
		if err != nil {
			return nil, fmt.Errorf("darknet: layer %d [%s]: %w", i, sec.Name, err)
		}
		imp.layers = append(imp.layers, out)
		cur = out
	}
	if len(outputs) == 0 {
		outputs = []relay.Expr{cur} // classification-style network
	}
	return frontend.Finish("darknet", []*relay.Var{input}, outputs, nil)
}

type dkImporter struct {
	wr     *WeightsReader
	layers []relay.Expr
}

func (imp *dkImporter) layerRef(idx, at int) (relay.Expr, error) {
	if idx < 0 {
		idx = at + idx
	}
	if idx < 0 || idx >= len(imp.layers) || imp.layers[idx] == nil {
		return nil, fmt.Errorf("layer reference %d out of range at layer %d", idx, at)
	}
	return imp.layers[idx], nil
}

func channelsOf(e relay.Expr) (int, error) {
	tt, ok := e.CheckedType().(*relay.TensorType)
	if !ok || len(tt.Shape) != 4 {
		return 0, fmt.Errorf("expected 4-D tensor, got %v", e.CheckedType())
	}
	return tt.Shape[3], nil
}

func (imp *dkImporter) conv(sec *Section, in relay.Expr) (relay.Expr, error) {
	filters := sec.Int("filters", 1)
	size := sec.Int("size", 1)
	stride := sec.Int("stride", 1)
	padFlag := sec.Int("pad", 0)
	bn := sec.Int("batch_normalize", 0) == 1
	activation := sec.Str("activation", "linear")
	inC, err := channelsOf(in)
	if err != nil {
		return nil, err
	}

	// Weight order in the file: [bias(+bn stats)] then OIHW weights.
	bias, err := imp.wr.ReadFloats(tensor.Shape{filters})
	if err != nil {
		return nil, err
	}
	var gamma, mean, variance *tensor.Tensor
	if bn {
		if gamma, err = imp.wr.ReadFloats(tensor.Shape{filters}); err != nil {
			return nil, err
		}
		if mean, err = imp.wr.ReadFloats(tensor.Shape{filters}); err != nil {
			return nil, err
		}
		if variance, err = imp.wr.ReadFloats(tensor.Shape{filters}); err != nil {
			return nil, err
		}
	}
	oihw, err := imp.wr.ReadFloats(tensor.Shape{filters, inC, size, size})
	if err != nil {
		return nil, err
	}
	ohwi := frontend.OIHWToOHWI(oihw)

	pad := 0
	if padFlag == 1 {
		pad = size / 2
	}
	out := relay.Expr(relay.NewCall(relay.OpConv2D, []relay.Expr{in, relay.Const(ohwi)},
		relay.Attrs{"strides": []int{stride, stride}, "padding": []int{pad, pad}}))
	if bn {
		out = relay.NewCall(relay.OpBatchNorm, []relay.Expr{
			out, relay.Const(gamma), relay.Const(bias), relay.Const(mean), relay.Const(variance),
		}, relay.Attrs{"epsilon": 1e-5})
	} else {
		out = relay.NewCall(relay.OpBiasAdd, []relay.Expr{out, relay.Const(bias)}, nil)
	}
	switch activation {
	case "leaky":
		out = relay.NewCall(relay.OpLeakyReLU, []relay.Expr{out}, relay.Attrs{"alpha": 0.1})
	case "relu":
		out = relay.NewCall(relay.OpReLU, []relay.Expr{out}, nil)
	case "linear":
	default:
		return nil, fmt.Errorf("unsupported activation %q", activation)
	}
	return out, nil
}

func maxpool(sec *Section, in relay.Expr) relay.Expr {
	size := sec.Int("size", 2)
	stride := sec.Int("stride", 2)
	attrs := relay.Attrs{"pool_size": []int{size, size}, "strides": []int{stride, stride}}
	if stride == 1 {
		// YOLO-tiny's stride-1 maxpool keeps spatial dims via asymmetric pad.
		attrs["padding"] = []int{0, 0, size - 1, size - 1}
	}
	return relay.NewCall(relay.OpMaxPool2D, []relay.Expr{in}, attrs)
}

func (imp *dkImporter) route(sec *Section, at int) (relay.Expr, error) {
	refs, err := sec.IntList("layers")
	if err != nil {
		return nil, err
	}
	if len(refs) == 0 {
		return nil, fmt.Errorf("route without layers")
	}
	fields := make([]relay.Expr, len(refs))
	for i, r := range refs {
		e, err := imp.layerRef(r, at)
		if err != nil {
			return nil, err
		}
		fields[i] = e
	}
	if len(fields) == 1 {
		return fields[0], nil
	}
	return relay.NewCall(relay.OpConcatenate, []relay.Expr{relay.NewTuple(fields)},
		relay.Attrs{"axis": 3}), nil
}

func (imp *dkImporter) shortcut(sec *Section, cur relay.Expr, at int) (relay.Expr, error) {
	from := sec.Int("from", -1)
	other, err := imp.layerRef(from, at)
	if err != nil {
		return nil, err
	}
	out := relay.Expr(relay.NewCall(relay.OpAdd, []relay.Expr{cur, other}, nil))
	if sec.Str("activation", "linear") == "leaky" {
		out = relay.NewCall(relay.OpLeakyReLU, []relay.Expr{out}, relay.Attrs{"alpha": 0.1})
	}
	return out, nil
}

func yolo(sec *Section, in relay.Expr) (relay.Expr, error) {
	mask, err := sec.IntList("mask")
	if err != nil {
		return nil, err
	}
	anchors := len(mask)
	if anchors == 0 {
		anchors = 3
	}
	classes := sec.Int("classes", 80)
	return relay.NewCall(relay.OpYoloOutput, []relay.Expr{in},
		relay.Attrs{"anchors": anchors, "classes": classes}), nil
}

// SynthesizeWeights writes a .weights file matching the cfg's convolutional
// layers, with deterministic Glorot weights — the model zoo's stand-in for
// downloading pretrained YOLO weights.
func SynthesizeWeights(cfgText string, seed uint64, w io.Writer) error {
	sections, err := ParseCfg(cfgText)
	if err != nil {
		return err
	}
	ww, err := NewWeightsWriter(w)
	if err != nil {
		return err
	}
	rng := tensor.NewRNG(seed)
	// Track channel counts through the network to size conv weights.
	channels := []int{}
	curC := sections[0].Int("channels", 3)
	for i, sec := range sections[1:] {
		switch sec.Name {
		case "convolutional":
			filters := sec.Int("filters", 1)
			size := sec.Int("size", 1)
			bn := sec.Int("batch_normalize", 0) == 1
			bias := tensor.New(tensor.Float32, tensor.Shape{filters})
			if err := ww.WriteFloats(bias); err != nil {
				return err
			}
			if bn {
				gamma := tensor.New(tensor.Float32, tensor.Shape{filters})
				gamma.FillUniform(rng, 0.8, 1.2)
				mean := tensor.New(tensor.Float32, tensor.Shape{filters})
				mean.FillUniform(rng, -0.2, 0.2)
				variance := tensor.New(tensor.Float32, tensor.Shape{filters})
				variance.FillUniform(rng, 0.5, 1.5)
				for _, t := range []*tensor.Tensor{gamma, mean, variance} {
					if err := ww.WriteFloats(t); err != nil {
						return err
					}
				}
			}
			wt := tensor.New(tensor.Float32, tensor.Shape{filters, curC, size, size})
			wt.FillGlorot(rng, curC*size*size, filters)
			if err := ww.WriteFloats(wt); err != nil {
				return err
			}
			curC = filters
		case "route":
			refs, err := sec.IntList("layers")
			if err != nil {
				return err
			}
			total := 0
			for _, r := range refs {
				idx := r
				if idx < 0 {
					idx = i + idx
				}
				if idx < 0 || idx >= len(channels) {
					return fmt.Errorf("darknet: route reference %d out of range", r)
				}
				total += channels[idx]
			}
			curC = total
		case "shortcut", "maxpool", "upsample", "yolo", "avgpool":
			// channel count unchanged
		}
		channels = append(channels, curC)
	}
	return nil
}
