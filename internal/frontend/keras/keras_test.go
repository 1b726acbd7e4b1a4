package keras

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/relay"
	"repro/internal/tensor"
)

// emotionLikeModel builds a small version of the paper's emotion CNN
// (Listing 4): conv-relu stacks, pooling, dropout, dense+softmax head.
func emotionLikeModel(t *testing.T) ([]byte, WeightStore) {
	t.Helper()
	s := NewSequential("emotion", 42).
		Input(48, 48, 1).
		Conv2D(32, 3, 1, "valid", "relu").
		Conv2D(64, 3, 1, "valid", "relu").
		MaxPooling2D(2, 2).
		Dropout(0.25).
		Conv2D(128, 3, 1, "valid", "relu").
		MaxPooling2D(2, 2).
		Flatten().
		Dense(64, "relu").
		Dropout(0.5).
		Dense(7, "softmax")
	js, err := s.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	ws, err := s.Weights()
	if err != nil {
		t.Fatal(err)
	}
	return js, ws
}

func TestFromKerasEmotionModel(t *testing.T) {
	js, ws := emotionLikeModel(t)
	m, err := FromKeras(js, ws)
	if err != nil {
		t.Fatal(err)
	}
	main := m.Main()
	ft := main.CheckedType().(*relay.FuncType)
	if !ft.Ret.Same(relay.TType(tensor.Float32, 1, 7)) {
		t.Errorf("output type %s, want (1,7) float32", ft.Ret)
	}
	if n := relay.CountOps(main, "nn.conv2d"); n != 3 {
		t.Errorf("conv count %d", n)
	}
	if n := relay.CountOps(main, "nn.softmax"); n != 1 {
		t.Errorf("softmax count %d", n)
	}
	if n := relay.CountOps(main, "nn.dropout"); n != 2 {
		t.Errorf("dropout count %d", n)
	}
}

func TestWeightBlobRoundTrip(t *testing.T) {
	_, ws := emotionLikeModel(t)
	var buf bytes.Buffer
	if err := ws.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadWeights(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(ws) {
		t.Fatalf("weight count %d vs %d", len(back), len(ws))
	}
	for name, want := range ws {
		got, ok := back[name]
		if !ok {
			t.Fatalf("missing %q after round trip", name)
		}
		if !tensor.AllClose(got, want, 0, 0) {
			t.Fatalf("weight %q changed", name)
		}
	}
}

func TestFromKerasSerializedRoundTrip(t *testing.T) {
	// Full artifact cycle: build → serialize → parse → import.
	js, ws := emotionLikeModel(t)
	var buf bytes.Buffer
	if err := ws.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadWeights(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromKeras(js, loaded); err != nil {
		t.Fatal(err)
	}
}

func TestFromKerasRejectsNonSequential(t *testing.T) {
	_, err := FromKeras([]byte(`{"class_name":"Functional","config":{}}`), WeightStore{})
	if err == nil || !strings.Contains(err.Error(), "Sequential") {
		t.Errorf("want Sequential error, got %v", err)
	}
}

func TestFromKerasMissingWeights(t *testing.T) {
	js, _ := emotionLikeModel(t)
	_, err := FromKeras(js, WeightStore{})
	if err == nil || !strings.Contains(err.Error(), "missing weight") {
		t.Errorf("want missing-weight error, got %v", err)
	}
}

func TestFromKerasBadJSON(t *testing.T) {
	if _, err := FromKeras([]byte(`{not json`), WeightStore{}); err == nil {
		t.Error("bad JSON accepted")
	}
}

func TestSequentialErrorPropagation(t *testing.T) {
	s := NewSequential("bad", 1).Input(8, 8, 3).Dense(10, "softmax") // Dense on 4-D
	if _, err := s.ToJSON(); err == nil {
		t.Error("builder error not propagated")
	}
}

func TestSamePaddingShapes(t *testing.T) {
	// 'same' conv keeps spatial dims at stride 1.
	s := NewSequential("same", 2).Input(16, 16, 3).Conv2D(8, 3, 1, "same", "relu")
	js, err := s.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	ws, _ := s.Weights()
	m, err := FromKeras(js, ws)
	if err != nil {
		t.Fatal(err)
	}
	ret := m.Main().CheckedType().(*relay.FuncType).Ret
	if !ret.Same(relay.TType(tensor.Float32, 1, 16, 16, 8)) {
		t.Errorf("'same' conv output %s", ret)
	}
}

func TestBatchNormImport(t *testing.T) {
	s := NewSequential("bn", 3).Input(8, 8, 3).Conv2D(4, 3, 1, "same", "linear").BatchNormalization()
	js, err := s.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	ws, _ := s.Weights()
	m, err := FromKeras(js, ws)
	if err != nil {
		t.Fatal(err)
	}
	if n := relay.CountOps(m.Main(), "nn.batch_norm"); n != 1 {
		t.Errorf("batch_norm count %d", n)
	}
}

func TestDepthwiseImport(t *testing.T) {
	s := NewSequential("dw", 4).Input(8, 8, 6).DepthwiseConv2D(3, 1, "same", "relu")
	js, err := s.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	ws, _ := s.Weights()
	m, err := FromKeras(js, ws)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	relay.PostOrderVisit(m.Main().Body, func(e relay.Expr) {
		if c, ok := e.(*relay.Call); ok && c.Op != nil && c.Op.Name == "nn.conv2d" {
			if c.Attrs.Int("groups", 1) == 6 {
				found = true
			}
		}
	})
	if !found {
		t.Error("depthwise conv did not import with groups=channels")
	}
}

func TestLoadWeightsCorrupt(t *testing.T) {
	cases := [][]byte{
		{},
		{0xff, 0xff, 0xff, 0xff},             // absurd count... but maxed; reader must bail
		{1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}, // absurd name length
	}
	for i, c := range cases {
		if _, err := LoadWeights(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: corrupt blob accepted", i)
		}
	}
}

// Keras "same" is TensorFlow's rule: at stride 2 the odd padding row goes at
// the end, and the output is ceil(in/stride), as Sequential's shape says.
func TestStridedSamePadding(t *testing.T) {
	s := NewSequential("strided", 5).Input(8, 8, 3).Conv2D(4, 3, 2, "same", "linear")
	js, err := s.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	ws, _ := s.Weights()
	m, err := FromKeras(js, ws)
	if err != nil {
		t.Fatal(err)
	}
	ret := m.Main().CheckedType().(*relay.FuncType).Ret
	if !ret.Same(relay.TType(tensor.Float32, s.OutputShape()...)) || !s.OutputShape().Equal(tensor.Shape{1, 4, 4, 4}) {
		t.Errorf("stride-2 'same' conv output %s, builder says %s", ret, s.OutputShape())
	}
	relay.PostOrderVisit(m.Main().Body, func(e relay.Expr) {
		if c, ok := e.(*relay.Call); ok && c.Op == relay.OpConv2D {
			if got := c.Attrs.Ints("padding", nil); !reflect.DeepEqual(got, []int{0, 0, 1, 1}) {
				t.Errorf("padding %v, want [0 0 1 1]", got)
			}
		}
	})
}
