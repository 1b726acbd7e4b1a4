package models

import (
	"bytes"
	"fmt"

	"repro/internal/frontend/torchscript"
	"repro/internal/relay"
	"repro/internal/tensor"
)

// The face anti-spoofing model (paper §4.1): DeePixBiS — a DenseNet-style
// backbone with deep pixel-wise binary supervision. It arrives from PyTorch
// as a TorchScript trace (Listing 2) and has two outputs: a pixel-wise
// liveness map (sigmoid) and a scalar score (spatial mean of the map).
//
// Two properties of the real deployment are reproduced deliberately:
//   - the dense blocks use leaky activations, which have no Neuron IR
//     mapping, so partition_for_nir shatters the backbone into many
//     subgraphs — the paper's "large number of subgraphs" pathology that
//     makes this model the slowest of the three and pushes it to CPU+APU;
//   - the spatial-mean score head keeps the model from compiling
//     NeuroPilot-only at all (no statistics in Figure 4).
type deePixBiSCfg struct {
	input     int // square input resolution
	stem      int // stem filters
	growth    int // dense-block growth rate
	blocks    int
	layersPer int
}

func deePixBiSConfig(size Size) deePixBiSCfg {
	if size == SizeLite {
		return deePixBiSCfg{input: 64, stem: 8, growth: 8, blocks: 2, layersPer: 2}
	}
	return deePixBiSCfg{input: 224, stem: 32, growth: 24, blocks: 2, layersPer: 4}
}

// BuildDeePixBiS traces the model and reimports it through the TorchScript
// frontend (serialize → parse → import), returning the relay module.
func BuildDeePixBiS(size Size) (*relay.Module, error) {
	g, sd, err := traceDeePixBiS(size).Trace()
	if err != nil {
		return nil, fmt.Errorf("models: tracing DeePixBiS: %w", err)
	}
	// Round-trip through the serialized artifact, as loading torch_path
	// would (Listing 2's build_model + torch.jit.trace).
	blob, err := torchscript.MarshalGraph(g)
	if err != nil {
		return nil, err
	}
	var wbuf bytes.Buffer
	if err := sd.Save(&wbuf); err != nil {
		return nil, err
	}
	g2, err := torchscript.UnmarshalGraph(blob)
	if err != nil {
		return nil, err
	}
	sd2, err := torchscript.LoadStateDict(&wbuf)
	if err != nil {
		return nil, err
	}
	return torchscript.FromTorch(g2, sd2)
}

// traceDeePixBiS defines the network on a tracer, as running
// torch.jit.trace over the nn.Module would.
func traceDeePixBiS(size Size) *torchscript.Tracer {
	cfg := deePixBiSConfig(size)
	tr := torchscript.NewTracer(0xDEE9)
	x := tr.Input(1, 3, cfg.input, cfg.input)

	// Stem: conv/2 + bn + relu + maxpool/2.
	c := tr.Conv2D(x, cfg.stem, 3, 2, 1, 1)
	c = tr.BatchNorm(c)
	c = tr.ReLU(c)
	c = tr.MaxPool2D(c, 2, 2)

	// Dense blocks with channel concatenation; each layer: bn-conv3x3-leaky,
	// concatenated onto the running feature map. Transitions halve spatial
	// dims with a 1x1 conv + pool.
	for b := 0; b < cfg.blocks; b++ {
		for l := 0; l < cfg.layersPer; l++ {
			f := tr.BatchNorm(c)
			f = tr.Conv2D(f, cfg.growth, 3, 1, 1, 1)
			f = tr.LeakyReLU(f, 0.1)
			c = tr.Cat(1, c, f)
		}
		if b != cfg.blocks-1 {
			tshape := tr.Shape(c)
			c = tr.Conv2D(c, tshape[1]/2, 1, 1, 0, 1)
			c = tr.ReLU(c)
			c = tr.MaxPool2D(c, 2, 2)
		}
	}

	// Pixel-wise supervision head: 1x1 conv to a single-channel map +
	// sigmoid; binary score = spatial mean of the map.
	pix := tr.Conv2D(c, 1, 1, 1, 0, 1)
	pixmap := tr.Sigmoid(pix)
	score := tr.MeanSpatial(pixmap)
	tr.Output(pixmap, score)
	return tr
}

func init() {
	register(Spec{
		Name:      "anti-spoofing",
		Framework: "PyTorch",
		DataType:  tensor.Float32,
		WidthMult: 0.25, // growth/stem reduced vs DenseNet-161's 48/96
		Build:     BuildDeePixBiS,
	})
}
