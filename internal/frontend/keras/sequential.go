package keras

import (
	"encoding/json"
	"fmt"

	"repro/internal/frontend"
	"repro/internal/tensor"
)

// Sequential is the authoring side of the frontend — the stand-in for the
// Keras Python API the paper's Listing 4 uses (model = Sequential();
// model.add(Conv2D(...))). The model zoo builds the emotion-detection model
// through this API and serializes it with ToJSON/SaveWeights, so the
// importer genuinely parses a foreign artifact rather than receiving relay
// directly.
type Sequential struct {
	name    string
	layers  []LayerConfig
	weights WeightStore
	rng     *tensor.RNG

	// running output shape (NHWC or NC), used to size kernels
	shape tensor.Shape
	err   error
}

// NewSequential starts a model; seed drives deterministic weight synthesis.
func NewSequential(name string, seed uint64) *Sequential {
	return &Sequential{name: name, weights: WeightStore{}, rng: tensor.NewRNG(seed)}
}

// Err returns the first building error (checked once at Save time too).
func (s *Sequential) Err() error { return s.err }

func (s *Sequential) fail(format string, args ...interface{}) {
	if s.err == nil {
		s.err = fmt.Errorf("keras build %q: "+format, append([]interface{}{s.name}, args...)...)
	}
}

func (s *Sequential) layerName(class string) string {
	return fmt.Sprintf("%s_%d", class, len(s.layers))
}

func (s *Sequential) add(class string, cfg map[string]interface{}) string {
	name := s.layerName(class)
	cfg["name"] = name
	if len(s.layers) == 0 && s.shape != nil {
		bis := make([]interface{}, len(s.shape))
		bis[0] = nil
		for i := 1; i < len(s.shape); i++ {
			bis[i] = float64(s.shape[i])
		}
		cfg["batch_input_shape"] = bis
	}
	s.layers = append(s.layers, LayerConfig{ClassName: class, Config: cfg})
	return name
}

func (s *Sequential) newWeight(name string, shape tensor.Shape, fanIn, fanOut int) {
	t := tensor.New(tensor.Float32, shape)
	t.FillGlorot(s.rng, fanIn, fanOut)
	s.weights[name] = t
}

// Input declares the model input shape (H, W, C) with an implied batch of 1.
func (s *Sequential) Input(h, w, c int) *Sequential {
	if s.shape != nil {
		s.fail("Input declared twice")
		return s
	}
	s.shape = tensor.Shape{1, h, w, c}
	return s
}

// Conv2D appends a convolution (+bias, +activation).
func (s *Sequential) Conv2D(filters, kernel, stride int, padding, activation string) *Sequential {
	if s.err != nil {
		return s
	}
	if len(s.shape) != 4 {
		s.fail("Conv2D on non-4D shape %v", s.shape)
		return s
	}
	inC := s.shape[3]
	name := s.add("Conv2D", map[string]interface{}{
		"filters":     float64(filters),
		"kernel_size": []interface{}{float64(kernel), float64(kernel)},
		"strides":     []interface{}{float64(stride), float64(stride)},
		"padding":     padding,
		"activation":  activation,
		"use_bias":    true,
	})
	s.newWeight(name+"/kernel", tensor.Shape{filters, kernel, kernel, inC}, kernel*kernel*inC, filters)
	s.weights[name+"/bias"] = tensor.New(tensor.Float32, tensor.Shape{filters})
	same := padding == "same"
	s.shape = tensor.Shape{1, frontend.OutDim(s.shape[1], kernel, stride, same), frontend.OutDim(s.shape[2], kernel, stride, same), filters}
	return s
}

// DepthwiseConv2D appends a depthwise convolution.
func (s *Sequential) DepthwiseConv2D(kernel, stride int, padding, activation string) *Sequential {
	if s.err != nil {
		return s
	}
	if len(s.shape) != 4 {
		s.fail("DepthwiseConv2D on non-4D shape %v", s.shape)
		return s
	}
	c := s.shape[3]
	name := s.add("DepthwiseConv2D", map[string]interface{}{
		"kernel_size": []interface{}{float64(kernel), float64(kernel)},
		"strides":     []interface{}{float64(stride), float64(stride)},
		"padding":     padding,
		"activation":  activation,
		"use_bias":    true,
	})
	s.newWeight(name+"/depthwise_kernel", tensor.Shape{c, kernel, kernel, 1}, kernel*kernel, 1)
	s.weights[name+"/bias"] = tensor.New(tensor.Float32, tensor.Shape{c})
	same := padding == "same"
	s.shape = tensor.Shape{1, frontend.OutDim(s.shape[1], kernel, stride, same), frontend.OutDim(s.shape[2], kernel, stride, same), c}
	return s
}

// MaxPooling2D appends a max pool.
func (s *Sequential) MaxPooling2D(pool, stride int) *Sequential {
	return s.pool("MaxPooling2D", pool, stride)
}

// AveragePooling2D appends an average pool.
func (s *Sequential) AveragePooling2D(pool, stride int) *Sequential {
	return s.pool("AveragePooling2D", pool, stride)
}

func (s *Sequential) pool(class string, pool, stride int) *Sequential {
	if s.err != nil {
		return s
	}
	if len(s.shape) != 4 {
		s.fail("%s on non-4D shape %v", class, s.shape)
		return s
	}
	s.add(class, map[string]interface{}{
		"pool_size": []interface{}{float64(pool), float64(pool)},
		"strides":   []interface{}{float64(stride), float64(stride)},
		"padding":   "valid",
	})
	s.shape = tensor.Shape{1, frontend.OutDim(s.shape[1], pool, stride, false), frontend.OutDim(s.shape[2], pool, stride, false), s.shape[3]}
	return s
}

// GlobalAveragePooling2D reduces H×W, producing (N, C).
func (s *Sequential) GlobalAveragePooling2D() *Sequential {
	if s.err != nil {
		return s
	}
	s.add("GlobalAveragePooling2D", map[string]interface{}{})
	s.shape = tensor.Shape{1, s.shape[3]}
	return s
}

// Flatten collapses to (N, H*W*C).
func (s *Sequential) Flatten() *Sequential {
	if s.err != nil {
		return s
	}
	n := 1
	for _, d := range s.shape[1:] {
		n *= d
	}
	s.add("Flatten", map[string]interface{}{})
	s.shape = tensor.Shape{1, n}
	return s
}

// Dense appends a fully connected layer.
func (s *Sequential) Dense(units int, activation string) *Sequential {
	if s.err != nil {
		return s
	}
	if len(s.shape) != 2 {
		s.fail("Dense on non-2D shape %v (missing Flatten?)", s.shape)
		return s
	}
	k := s.shape[1]
	name := s.add("Dense", map[string]interface{}{
		"units":      float64(units),
		"activation": activation,
		"use_bias":   true,
	})
	s.newWeight(name+"/kernel", tensor.Shape{units, k}, k, units)
	s.weights[name+"/bias"] = tensor.New(tensor.Float32, tensor.Shape{units})
	s.shape = tensor.Shape{1, units}
	return s
}

// Dropout appends an (inference-time no-op) dropout layer, as in Listing 4.
func (s *Sequential) Dropout(rate float64) *Sequential {
	if s.err != nil {
		return s
	}
	s.add("Dropout", map[string]interface{}{"rate": rate})
	return s
}

// BatchNormalization appends a batch-norm layer with synthesized statistics.
func (s *Sequential) BatchNormalization() *Sequential {
	if s.err != nil {
		return s
	}
	c := s.shape[len(s.shape)-1]
	name := s.add("BatchNormalization", map[string]interface{}{"epsilon": 1e-3})
	gamma := tensor.New(tensor.Float32, tensor.Shape{c})
	gamma.FillUniform(s.rng, 0.8, 1.2)
	beta := tensor.New(tensor.Float32, tensor.Shape{c})
	beta.FillUniform(s.rng, -0.1, 0.1)
	mean := tensor.New(tensor.Float32, tensor.Shape{c})
	mean.FillUniform(s.rng, -0.2, 0.2)
	variance := tensor.New(tensor.Float32, tensor.Shape{c})
	variance.FillUniform(s.rng, 0.5, 1.5)
	s.weights[name+"/gamma"] = gamma
	s.weights[name+"/beta"] = beta
	s.weights[name+"/moving_mean"] = mean
	s.weights[name+"/moving_variance"] = variance
	return s
}

// OutputShape returns the current running shape.
func (s *Sequential) OutputShape() tensor.Shape { return s.shape.Clone() }

// ToJSON serializes the architecture like model.to_json().
func (s *Sequential) ToJSON() ([]byte, error) {
	if s.err != nil {
		return nil, s.err
	}
	var cfg ModelConfig
	cfg.ClassName = "Sequential"
	cfg.Config.Name = s.name
	cfg.Config.Layers = s.layers
	return json.Marshal(cfg)
}

// Weights returns the weight store for SaveWeights.
func (s *Sequential) Weights() (WeightStore, error) {
	if s.err != nil {
		return nil, s.err
	}
	return s.weights, nil
}
