// Package models is the model zoo: programmatic builders for every network
// the paper uses — the three application-showcase models (§4) and the
// Figure 6 / Table 1 classifier sweep — each emitted in its source
// framework's serialized format and imported through the corresponding
// frontend, so every model exercises a real import path.
//
// Weights are synthesized deterministically (see DESIGN.md §2): inference
// *time* depends only on the architecture, and the showcase pipeline only
// needs stable, plausible activations. Architectures follow the published
// networks' block structure with a per-model width multiplier recorded in
// WidthMult (full-width inception-class models would occupy hundreds of MB
// of synthetic weights for no additional fidelity).
package models

import (
	"fmt"
	"sort"

	"repro/internal/relay"
	"repro/internal/tensor"
)

// Size selects a build preset.
type Size int

const (
	// SizeFull is the canonical architecture used for the Figure 4/6
	// experiments (static cost estimation + single verification runs).
	SizeFull Size = iota
	// SizeLite is a reduced-resolution variant used where many real
	// inferences run (the application showcase and pipeline experiments).
	SizeLite
)

// Spec describes one zoo entry.
type Spec struct {
	// Name as the paper's figures label it.
	Name string
	// Framework is the source ML framework ("PyTorch", "Keras", "TFLite",
	// "Darknet", "ONNX") — the Table 1-style provenance.
	Framework string
	// DataType is the Table 1 data type (float32 or int8/uint8).
	DataType tensor.DType
	// WidthMult records the channel-width multiplier applied to the
	// canonical architecture (1.0 = full width).
	WidthMult float64
	// Build emits the serialized artifact and imports it through the
	// frontend, returning the relay module.
	Build func(size Size) (*relay.Module, error)
}

// InputShape returns the NHWC input shape of the built module.
func InputShape(m *relay.Module) tensor.Shape {
	p := m.Main().Params[0]
	return p.TypeAnnotation.(*relay.TensorType).Shape.Clone()
}

// InputDType returns the input element type of the built module.
func InputDType(m *relay.Module) tensor.DType {
	p := m.Main().Params[0]
	return p.TypeAnnotation.(*relay.TensorType).DType
}

// InputQuant returns input quantization parameters (nil for float inputs).
func InputQuant(m *relay.Module) *tensor.QuantParams {
	p := m.Main().Params[0]
	return p.TypeAnnotation.(*relay.TensorType).Quant
}

// RandomInput synthesizes a deterministic input tensor matching the module.
func RandomInput(m *relay.Module, seed uint64) *tensor.Tensor {
	return RandomInputInto(m, seed, tensor.New(InputDType(m), InputShape(m)))
}

// RandomInputInto synthesizes RandomInput's tensor into dst, which must have
// the module's input dtype and shape, and returns dst. A float input draws
// uniform values in [0,1); a uint8 input draws raw bytes and carries the
// module's input quantization.
//
//np:hotpath
func RandomInputInto(m *relay.Module, seed uint64, dst *tensor.Tensor) *tensor.Tensor {
	tt := m.Main().Params[0].TypeAnnotation.(*relay.TensorType)
	if dst.DType != tt.DType || !dst.Shape.Equal(tt.Shape) {
		panic(fmt.Sprintf("models: input %s %s into a %s %s tensor", tt.DType, tt.Shape, dst.DType, dst.Shape))
	}
	rng := tensor.NewRNG(seed)
	switch tt.DType {
	case tensor.Float32:
		dst.FillUniform(rng, 0, 1)
		return dst
	case tensor.UInt8:
		if q := tt.Quant; q != nil && (dst.Quant == nil || *dst.Quant != *q) {
			qq := *q
			dst.Quant = &qq //np:alloc-ok once per tensor: a pooled tensor keeps its copy
		}
		raw := dst.U8()
		for i := range raw {
			raw[i] = uint8(rng.Intn(256))
		}
		return dst
	}
	panic(fmt.Sprintf("models: no input synthesizer for %s", tt.DType))
}

var registry = map[string]Spec{}

func register(s Spec) {
	if _, dup := registry[s.Name]; dup {
		panic("models: duplicate spec " + s.Name)
	}
	registry[s.Name] = s
}

// Get returns a spec by name.
func Get(name string) (Spec, error) {
	s, ok := registry[name]
	if !ok {
		return Spec{}, fmt.Errorf("models: unknown model %q", name)
	}
	return s, nil
}

// Names lists all registered models, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Showcase returns the three application-showcase models of Figure 4, in
// the paper's order: anti-spoofing (PyTorch), emotion (Keras), object
// detection (TFLite quantized MobileNet-SSD).
func Showcase() []Spec {
	return mustGet("anti-spoofing", "emotion", "mobilenet ssd (quant)")
}

// Figure6 returns the extended classifier sweep of Figure 6 / Table 1.
func Figure6() []Spec {
	return mustGet(
		"densenet",
		"inception resnet v2",
		"inception v3",
		"inception v4",
		"mobilenet v1",
		"mobilenet v2",
		"nasnet",
		"inception v3 (quant)",
		"mobilenet v1 (quant)",
		"mobilenet v2 (quant)",
	)
}

// Table1 returns the float32 classifier inventory exactly as Table 1 lists
// it.
func Table1() []Spec {
	return mustGet(
		"densenet",
		"inception resnet v2",
		"inception v3",
		"inception v4",
		"mobilenet v1",
		"mobilenet v2",
		"nasnet",
	)
}

func mustGet(names ...string) []Spec {
	out := make([]Spec, len(names))
	for i, n := range names {
		s, err := Get(n)
		if err != nil {
			panic(err)
		}
		out[i] = s
	}
	return out
}
