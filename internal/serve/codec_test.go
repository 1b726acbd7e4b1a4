package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/frontend/keras"
	"repro/internal/models"
	"repro/internal/race"
	"repro/internal/runtime"
	"repro/internal/soc"
	"repro/internal/tensor"
)

// checkDecodeAgainstJSON holds the /v1/infer decoder to its oracle:
// json.Unmarshal into InferRequest. Same accept/reject, same envelope, the
// same inputs to the bit. InferEnvelope, the router's view of the same body,
// must accept, refuse and read it as decode does.
func checkDecodeAgainstJSON(t *testing.T, body []byte) (accepted bool) {
	t.Helper()
	var want InferRequest
	wantErr := json.Unmarshal(body, &want)

	q := getInferBuf()
	defer putInferBuf(q)
	q.b = append(q.b[:0], body...)
	err := q.decode(q.b)
	model, seed, envErr := InferEnvelope(body)
	if (err == nil) != (wantErr == nil) || (envErr == nil) != (wantErr == nil) {
		t.Fatalf("decode(%q) error %v, InferEnvelope error %v, json.Unmarshal error %v", body, err, envErr, wantErr)
	}
	if wantErr != nil {
		if err.Error() != wantErr.Error() || envErr.Error() != wantErr.Error() {
			t.Fatalf("decode(%q) rejects with %q, InferEnvelope with %q, json.Unmarshal with %q", body, err, envErr, wantErr)
		}
		return false
	}
	if model != want.Model || seed != want.Seed {
		t.Fatalf("InferEnvelope(%q) = (%q, %d), json.Unmarshal reads (%q, %d)", body, model, seed, want.Model, want.Seed)
	}
	if q.model != want.Model || q.seed != want.Seed || q.timeoutMs != want.TimeoutMs {
		t.Fatalf("decode(%q) = model %q seed %d timeout %d, json.Unmarshal reads %q %d %d",
			body, q.model, q.seed, q.timeoutMs, want.Model, want.Seed, want.TimeoutMs)
	}
	if len(q.inputs) != len(want.Inputs) {
		t.Fatalf("decode(%q) binds %d inputs, json.Unmarshal %d", body, len(q.inputs), len(want.Inputs))
	}
	for name, data := range want.Inputs {
		got, ok := q.input(name)
		if !ok || len(got) != len(data) {
			t.Fatalf("decode(%q): input %q has %d values (present %v), json.Unmarshal reads %d", body, name, len(got), ok, len(data))
		}
		for i := range data {
			if math.Float64bits(got[i]) != math.Float64bits(data[i]) {
				t.Fatalf("decode(%q): input %q[%d] = %v (%#x), json.Unmarshal reads %v (%#x)",
					body, name, i, got[i], math.Float64bits(got[i]), data[i], math.Float64bits(data[i]))
			}
		}
	}
	return true
}

// FuzzDecodeInfer: on every input the decoder and json.Unmarshal agree, and
// neither panics.
func FuzzDecodeInfer(f *testing.F) {
	f.Add([]byte(`{"model":"tiny","seed":7}`)) // the rest of the seed corpus is under testdata/fuzz/
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 128 {
			// The engine's minimiser stalls on longer inputs, and every
			// construct of the grammar fits well inside this.
			t.Skip()
		}
		checkDecodeAgainstJSON(t, body)
	})
}

// explicitBody is a body of the shape benchmark/ sends: n four-decimal
// values, marshalled by encoding/json.
func explicitBody(model, input string, n int) []byte {
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i*7919%10000) / 10000
	}
	js, _ := json.Marshal(data)
	return []byte(`{"model":"` + model + `","inputs":{"` + input + `":` + string(js) + `}}`)
}

// manyInputsBody is a body whose "inputs" holds n distinct names, each bound
// to a one-element array.
func manyInputsBody(n int) []byte {
	var b bytes.Buffer
	b.WriteString(`{"model":"m","inputs":{`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `"in%d":[%d]`, i, i)
	}
	b.WriteString(`}}`)
	return b.Bytes()
}

// TestDecodeInferTable pins by name what a 128-byte fuzz input cannot reach
// or what must never drift: accept is what encoding/json does with the body,
// scanned whether the one-pass scanner (not the delegate) is what takes it.
func TestDecodeInferTable(t *testing.T) {
	cases := []struct {
		name, body      string
		accept, scanned bool
	}{
		{"seed request", `{"model":"tiny","seed":7}`, true, true},
		{"benchmark explicit body", string(explicitBody("tiny", "input_1", 3072)), true, true},
		{"all four fields", `{"timeout_ms":-12,"inputs":{"a":[1],"b":[2,3]},"seed":0,"model":"m"}`, true, true},
		{"empty object", `{}`, true, true},
		{"empty inputs and array", `{"inputs":{}}`, true, true},
		{"empty array", `{"inputs":{"x":[]}}`, true, true},
		{"as many inputs as the scanner takes", string(manyInputsBody(maxScannedInputs)), true, true},
		{"one input more", string(manyInputsBody(maxScannedInputs + 1)), true, false},
		{"thousands of inputs", string(manyInputsBody(4000)), true, false},
		{"largest seed", `{"seed":18446744073709551615}`, true, false},
		{"seed overflow", `{"seed":18446744073709551616}`, false, false},
		{"negative seed", `{"seed":-1}`, false, false},
		{"fractional seed", `{"seed":1.0}`, false, false},
		{"exponent timeout", `{"timeout_ms":1e3}`, false, false},
		{"minus zero timeout", `{"timeout_ms":-0}`, true, true},
		{"spaced minus", `{"timeout_ms":- 1}`, false, false},

		{"minus zero", `{"inputs":{"x":[-0]}}`, true, true},
		{"minus zero float", `{"inputs":{"x":[-0.0e0]}}`, true, true},
		{"subnormal", `{"inputs":{"x":[1e-320]}}`, true, true},
		{"underflow to zero", `{"inputs":{"x":[1e-400]}}`, true, true},
		{"overflow", `{"inputs":{"x":[1e400]}}`, false, false},
		{"seventeen digits", `{"inputs":{"x":[0.10000000149011612,123456789012345678901234567890123456789]}}`, true, true},
		{"exponent forms", `{"inputs":{"x":[1e5,1E5,1e+5,1e-5,1.5e05]}}`, true, true},
		{"leading zero", `{"inputs":{"x":[01]}}`, false, false},
		{"plus sign", `{"inputs":{"x":[+1]}}`, false, false},
		{"bare point", `{"inputs":{"x":[1.]}}`, false, false},
		{"leading point", `{"inputs":{"x":[.5]}}`, false, false},
		{"bare exponent", `{"inputs":{"x":[1e]}}`, false, false},
		{"signed bare exponent", `{"inputs":{"x":[1e+]}}`, false, false},
		{"bare minus", `{"inputs":{"x":[-]}}`, false, false},
		{"NaN", `{"inputs":{"x":[NaN]}}`, false, false},
		{"Infinity", `{"inputs":{"x":[Infinity]}}`, false, false},
		{"-Inf", `{"inputs":{"x":[-Inf]}}`, false, false},
		{"hex", `{"inputs":{"x":[0x10]}}`, false, false},
		{"hex float", `{"inputs":{"x":[0x1p3]}}`, false, false},
		{"underscore", `{"inputs":{"x":[1_000]}}`, false, false},
		{"trailing comma", `{"inputs":{"x":[1,]}}`, false, false},
		{"leading comma", `{"inputs":{"x":[,1]}}`, false, false},
		{"missing comma", `{"inputs":{"x":[1 2]}}`, false, false},
		{"string element", `{"inputs":{"x":["1"]}}`, false, false},
		{"nested array", `{"inputs":{"x":[[1]]}}`, false, false},

		{"every whitespace", " \t\r\n{ \t\r\n\"model\" \t\r\n: \t\r\n\"m\" \t\r\n, \t\r\n\"inputs\" \t\r\n: \t\r\n{ \t\r\n\"x\" \t\r\n: \t\r\n[ \t\r\n1 \t\r\n, \t\r\n2 \t\r\n] \t\r\n} \t\r\n} \t\r\n", true, true},
		{"form feed is not whitespace", "{\f}", false, false},
		{"nested unknown values", `{"a":{"b":[1,{"c":"}"}],"d":null},"model":"m","e":[[]],"f":true}`, true, false},
		{"unknown key, malformed value", `{"a":{"b":[1,}]},"model":"m"}`, false, false},
		{"duplicate key", `{"seed":1,"seed":2}`, true, false},
		{"duplicate inputs merge", `{"inputs":{"a":[1]},"inputs":{"b":[2]}}`, true, false},
		{"duplicate input name", `{"inputs":{"a":[1,2],"a":[3]}}`, true, false},
		{"case-folded keys", `{"MODEL":"m","Seed":3,"INPUTS":{"X":[1]},"Timeout_MS":4}`, true, true},
		{"folded duplicate", `{"seed":1,"SEED":2}`, true, false},
		{"non-ASCII fold", `{"ſeed":5,"inputſ":{"x":[1]}}`, true, false},
		{"escaped key", `{"mod\u0065l":"m"}`, true, false},
		{"escaped model", `{"model":"a\"b\u00e9\ud83d\ude00\n"}`, true, false},
		{"lone surrogate", `{"model":"\ud800"}`, true, false},
		{"invalid UTF-8", "{\"model\":\"a\xffb\"}", true, false},
		{"non-ASCII model", `{"model":"modèle"}`, true, false},
		{"control byte in string", "{\"model\":\"a\nb\"}", false, false},
		{"bad escape", `{"model":"\x41"}`, false, false},
		{"escaped input name", `{"inputs":{"\u0078":[1]}}`, true, false},

		{"null document", `null`, true, false},
		{"null model", `{"model":null}`, true, false},
		{"null seed", `{"seed":null}`, true, false},
		{"null timeout", `{"timeout_ms":null}`, true, false},
		{"null inputs", `{"inputs":null}`, true, false},
		{"null array", `{"inputs":{"x":null}}`, true, false},
		{"null element", `{"inputs":{"x":[1,null,3]}}`, true, false},
		{"null after inputs", `{"inputs":{"x":[1]},"inputs":null}`, true, false},

		{"number document", `5`, false, false},
		{"array document", `[]`, false, false},
		{"string model wanted", `{"model":5}`, false, false},
		{"object inputs wanted", `{"inputs":[1]}`, false, false},
		{"array input wanted", `{"inputs":{"x":1}}`, false, false},
		{"empty body", ``, false, false},
		{"whitespace only", ` `, false, false},
		{"trailing garbage", `{"model":"m"} x`, false, false},
		{"second document", `{"model":"m"}{"model":"n"}`, false, false},
		{"trailing comma in object", `{"model":"m",}`, false, false},
		{"missing colon", `{"model" "m"}`, false, false},
		{"unquoted key", `{model:"m"}`, false, false},
		{"single quotes", `{'model':'m'}`, false, false},
		{"deep nesting", `{"a":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}`, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := checkDecodeAgainstJSON(t, []byte(tc.body)); got != tc.accept {
				t.Errorf("accepted %v, want %v", got, tc.accept)
			}
			if got := scanInfer([]byte(tc.body), new(inferBuf)); got != tc.scanned {
				t.Errorf("one-pass scanner took it: %v, want %v", got, tc.scanned)
			}
		})
	}
}

// TestDecodeInferTruncated cuts a canonical body at every byte offset: each
// prefix is refused (by the scanner and so by encoding/json), nothing
// panics, and nothing reads past the slice — the prefix is the whole of its
// backing array, so a read beyond it would fault.
func TestDecodeInferTruncated(t *testing.T) {
	body := []byte(`{"model":"tiny","seed":42,"timeout_ms":-7,"inputs":{"x":[0.5,-1.25e-3,0,17],"y":[]}}`)
	if !checkDecodeAgainstJSON(t, body) {
		t.Fatal("the whole body must be accepted")
	}
	for n := 0; n < len(body); n++ {
		prefix := make([]byte, n)
		copy(prefix, body)
		if checkDecodeAgainstJSON(t, prefix) {
			t.Errorf("prefix of %d bytes %q accepted", n, prefix)
		}
		if scanInfer(prefix, new(inferBuf)) {
			t.Errorf("scanner took the %d-byte prefix %q", n, prefix)
		}
	}
}

// TestDecodeManyInputsIsLinear: a body made of as many distinct input names
// as fit in a megabyte costs what encoding/json's map costs — the scanner
// gives it up after maxScannedInputs names instead of comparing each name
// with all before it (5e9 compares here, 1e12 at MaxInferBody) — and leaves
// nothing of its size in the pool.
func TestDecodeManyInputsIsLinear(t *testing.T) {
	var b bytes.Buffer
	b.WriteString(`{"inputs":{`)
	n := 0
	for ; b.Len() < 1<<20; n++ {
		fmt.Fprintf(&b, `"%05x":[],`, n)
	}
	b.Truncate(b.Len() - 1)
	b.WriteString(`}}`)
	body := b.Bytes()

	start := time.Now()
	var want InferRequest
	if err := json.Unmarshal(body, &want); err != nil || len(want.Inputs) != n {
		t.Fatalf("json.Unmarshal reads %d of %d inputs: %v", len(want.Inputs), n, err)
	}
	oracle := time.Since(start)

	q := getInferBuf()
	start = time.Now()
	err := q.decode(body)
	took := time.Since(start)
	if err != nil || len(q.inputs) != n {
		t.Fatalf("decode reads %d of %d inputs: %v", len(q.inputs), n, err)
	}
	t.Logf("%d inputs: decode %v, json.Unmarshal %v", n, took, oracle)
	// The quadratic scan took seconds without the race detector; the bound
	// leaves a loaded machine two orders of magnitude.
	if limit := 20*oracle + 2*time.Second; took > limit {
		t.Errorf("decode of %d inputs took %v, json.Unmarshal %v: more than %v", n, took, oracle, limit)
	}
	putInferBuf(q)
	if cap(q.inputs) > maxScannedInputs {
		t.Errorf("a slice of %d inputs went back to the pool", cap(q.inputs))
	}
}

// ------------------------------------------------------------------ encode

// stdlibReply is the reply as the handler used to produce it: an
// InferResponse, with a []float64 per output, through json.NewEncoder.
func stdlibReply(t *testing.T, model string, res *Result, traceID string) []byte {
	t.Helper()
	resp := InferResponse{
		Model:     model,
		Version:   res.Version,
		BatchSize: res.BatchSize,
		QueueMs:   float64(res.QueueWait) / float64(time.Millisecond),
		WallMs:    float64(res.Wall) / float64(time.Millisecond),
		SimMs:     res.SimTime.Ms(),
		TraceID:   traceID,
	}
	for _, o := range res.Outputs {
		tj := TensorJSON{Shape: []int(o.Shape.Clone()), DType: o.DType.String(), Data: make([]float64, o.Elems())}
		for i := range tj.Data {
			tj.Data[i] = o.GetF(i)
		}
		resp.Outputs = append(resp.Outputs, tj)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkReplyGolden(t *testing.T, model string, res *Result, traceID string) {
	t.Helper()
	want := stdlibReply(t, model, res, traceID)
	got, err := appendInferResponse([]byte("overwritten")[:0], model, res, traceID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("reply differs from json.NewEncoder's\n got %s\nwant %s", got, want)
	}
}

// TestEncodeInferResponseGolden: the appended reply is json.NewEncoder's,
// byte for byte — for every zoo model's real outputs and for the values and
// strings where encoding/json changes form.
func TestEncodeInferResponseGolden(t *testing.T) {
	edge := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e20, 1e21, -1e21, 1e-6, 1e-7, -1e-7, 9.999999e-7,
		1e-9, 1.5e-10, 1e100, 1e-100, 123456789, 100000000000000000000, 999999999999999900000,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, math.MaxFloat32, math.SmallestNonzeroFloat32,
		float64(float32(0.1)), float64(float32(1e-6)), float64(float32(1e21)), float64(float32(3.4e38)), math.Pi,
	}
	t.Run("floats", func(t *testing.T) {
		for _, v := range edge {
			want, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := appendJSONFloat(nil, v); !ok || string(got) != string(want) {
				t.Errorf("appendJSONFloat(%g) = %s (ok %v), json writes %s", v, got, ok, want)
			}
		}
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			if got, ok := appendJSONFloat(nil, v); ok || len(got) != 0 {
				t.Errorf("appendJSONFloat(%g) = %q, ok %v: want refused with nothing appended", v, got, ok)
			}
		}
	})

	var narrow []float32 // the edge values a float32 holds; the reply widens them back
	for _, v := range edge {
		if f := float32(v); !math.IsInf(float64(f), 0) {
			narrow = append(narrow, f)
		}
	}
	f32 := tensor.FromF32(narrow, tensor.Shape{1, len(narrow)})
	u8 := tensor.FromU8([]uint8{0, 3, 6, 255}, tensor.Shape{2, 2}, tensor.QuantParams{Scale: 0.1, ZeroPoint: 3})
	i8 := tensor.FromI8([]int8{-128, 0, 127}, tensor.Shape{3}, tensor.QuantParams{Scale: 1e-8, ZeroPoint: -1})
	i32 := tensor.FromI32([]int32{math.MinInt32, 0, math.MaxInt32}, tensor.Shape{3, 1, 1})
	scalar := tensor.Scalar(0.5)
	empty := tensor.New(tensor.Float32, tensor.Shape{0, 4})

	t.Run("forms", func(t *testing.T) {
		full := &Result{
			Outputs: []*tensor.Tensor{f32, u8, i8, i32, scalar, empty}, Version: "v<1>&\"2\" \\",
			BatchSize: 3, QueueWait: 1234567 * time.Nanosecond, Wall: 1, SimTime: soc.Seconds(1e-10),
		}
		checkReplyGolden(t, "a<b>&c", full, "00112233445566778899aabbccddeeff")
		checkReplyGolden(t, "\u2028\u2029\u00e9\x00\x1f\x7f\xff\"\\/", full, "")
		checkReplyGolden(t, "", &Result{}, "")
		checkReplyGolden(t, "m", &Result{Outputs: []*tensor.Tensor{scalar}, SimTime: 1e30}, "t")
	})

	t.Run("zoo", func(t *testing.T) {
		if testing.Short() {
			t.Skip("builds every zoo model")
		}
		for _, name := range models.Names() {
			spec, err := models.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			mod, err := spec.Build(models.SizeLite)
			if err != nil {
				t.Fatal(err)
			}
			lib, err := runtime.Build(mod, runtime.BuildOptions{OptLevel: 3})
			if err != nil {
				t.Fatal(err)
			}
			gm := runtime.NewGraphModule(lib)
			gm.SetInput(gm.InputNames()[0], models.RandomInput(mod, 3))
			if err := gm.Run(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			res := &Result{BatchSize: 1, Wall: 81234 * time.Nanosecond, SimTime: gm.LastProfile().Total()}
			for i := 0; i < gm.NumOutputs(); i++ {
				o, err := gm.OutputCopy(i)
				if err != nil {
					t.Fatal(err)
				}
				res.Outputs = append(res.Outputs, o)
			}
			checkReplyGolden(t, name, res, "0123456789abcdef0123456789abcdef")
		}
	})
}

// ------------------------------------------------------------- the handler

// kerasLib builds a one-conv model with an h×w×3 input and four outputs:
// small enough that a request is mostly its codec.
func kerasLib(t testing.TB, h, w int) *runtime.Lib {
	t.Helper()
	seq := keras.NewSequential("tiny", 7).Input(h, w, 3).
		MaxPooling2D(4, 4).Conv2D(4, 3, 1, "same", "relu").GlobalAveragePooling2D().Dense(4, "softmax")
	js, err := seq.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	ws, err := seq.Weights()
	if err != nil {
		t.Fatal(err)
	}
	mod, err := keras.FromKeras(js, ws)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := runtime.Build(mod, runtime.BuildOptions{OptLevel: 3})
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func serveBody(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body)))
	return rec
}

// TestInferHandlerAllocs: a request allocates nothing per element — the
// explicit path costs the same number of allocations at 3072 floats and at
// four times that — and the seed path fits a small fixed budget. Both counts
// include the recorder, the request and the model run.
func TestInferHandlerAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	s := NewServer()
	defer s.Drain()
	counts := map[string]float64{}
	for _, side := range []int{32, 64} {
		lib := kerasLib(t, side, side)
		name := fmt.Sprintf("tiny%d", side)
		if err := s.Register(name, lib, ModelOptions{Pool: 1}); err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		input := lib.Module.Main().Params[0].Name
		for class, body := range map[string][]byte{
			"explicit": explicitBody(name, input, side*side*3),
			"seed":     []byte(`{"model":"` + name + `","seed":5}`),
		} {
			if rec := serveBody(h, body); rec.Code != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", name, class, rec.Code, rec.Body)
			}
			counts[name+class] = testing.AllocsPerRun(100, func() { serveBody(h, body) })
		}
	}
	t.Logf("allocations per request: %v", counts)
	if a, b := counts["tiny32explicit"], counts["tiny64explicit"]; a != b {
		t.Errorf("explicit request allocates %v times at 3072 floats and %v at 12288: something is per element", a, b)
	}
	// 91 under go1.24 at the time of writing, most of them the recorder, the
	// request and the model run; the reflection decode made it 100, and 129
	// and 136 for the two explicit bodies.
	const seedBudget = 96
	for _, name := range []string{"tiny32seed", "tiny64seed"} {
		if counts[name] > seedBudget {
			t.Errorf("%s: %v allocations per request, budget %d", name, counts[name], seedBudget)
		}
	}
}

// TestInferConcurrentMixedBodies: eight goroutines post seed and explicit
// bodies of two sizes against one server, every reply equal to the one a
// sequential pass got — no pooled buffer or tensor is shared between live
// requests. Run under -race.
func TestInferConcurrentMixedBodies(t *testing.T) {
	s := NewServer()
	defer s.Drain()
	var bodies [][]byte
	for _, side := range []int{16, 32} {
		lib := kerasLib(t, side, side)
		name := fmt.Sprintf("tiny%d", side)
		if err := s.Register(name, lib, ModelOptions{Pool: 2}); err != nil {
			t.Fatal(err)
		}
		input := lib.Module.Main().Params[0].Name
		bodies = append(bodies,
			explicitBody(name, input, side*side*3),
			[]byte(`{"model":"`+name+`","seed":1}`),
			[]byte(`{"model":"`+name+`","seed":2,"unknown":"cold path"}`),
			[]byte(`{"model":"`+name+`","inputs":{"`+input+`":[1,2,3]}}`))
	}
	h := s.Handler()
	// Timings and the trace ID differ from reply to reply; the model, the
	// status and the outputs may not.
	stable := func(rec *httptest.ResponseRecorder) string {
		var ir InferResponse
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &ir); err != nil {
				return "undecodable reply: " + err.Error()
			}
			return fmt.Sprint(rec.Code, ir.Model, ir.Outputs)
		}
		return fmt.Sprint(rec.Code, rec.Body)
	}
	want := make([]string, len(bodies))
	for i, body := range bodies {
		want[i] = stable(serveBody(h, body))
	}
	if !strings.HasPrefix(want[0], "200") || !strings.HasPrefix(want[3], "400") {
		t.Fatalf("sequential pass: explicit %q, short explicit %q", want[0], want[3])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k := (g + i) % len(bodies)
				if got := stable(serveBody(h, bodies[k])); got != want[k] {
					t.Errorf("goroutine %d request %d (%.40s…): got %s, sequential pass got %s", g, i, bodies[k], got, want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestInferBodyIsOneJSONValue pins, at the handler, the one rule of
// json.Unmarshal that the json.Decoder this endpoint used to read with did
// not have: the body is one JSON value and nothing after it. The fleet router
// has always refused such bodies; a worker asked directly now does too.
func TestInferBodyIsOneJSONValue(t *testing.T) {
	s := NewServer()
	defer s.Drain()
	if err := s.Register("tiny", kerasLib(t, 8, 8), ModelOptions{Pool: 1}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for _, tc := range []struct {
		body, reply string
		status      int
	}{
		{`{"model":"tiny","seed":1}` + " \r\n\t", "", http.StatusOK},
		{`{"model":"tiny","seed":1} x`, `{"error":"bad request body: invalid character 'x' after top-level value"}`, http.StatusBadRequest},
		{`{"model":"tiny","seed":1}{"model":"tiny","seed":2}`, `{"error":"bad request body: invalid character '{' after top-level value"}`, http.StatusBadRequest},
		{`{"model":"tiny","seed":`, `{"error":"bad request body: unexpected end of JSON input"}`, http.StatusBadRequest},
	} {
		rec := serveBody(h, []byte(tc.body))
		if rec.Code != tc.status {
			t.Errorf("%q: status %d, want %d: %s", tc.body, rec.Code, tc.status, rec.Body)
		}
		if got := strings.TrimSpace(rec.Body.String()); tc.reply != "" && got != tc.reply {
			t.Errorf("%q: reply %s, want %s", tc.body, got, tc.reply)
		}
	}
}

// overflowingBody binds values beyond float32's range (lite emotion's input
// has an even element count): ±Inf once bound, NaN out of the model.
func overflowingBody(model string, lib *runtime.Lib) []byte {
	values := strings.TrimSuffix(strings.Repeat("1e39,-1e39,", models.InputShape(lib.Module).Elems()/2), ",")
	return []byte(`{"model":"` + model + `","inputs":{"` + lib.Module.Main().Params[0].Name + `":[` + values + `]}}`)
}

// TestInferUnencodableOutputIs500: outputs that have no JSON form (float32
// overflow in, NaN out) are answered 500 with a JSON error naming the value —
// not 200 with an empty body, which is what writing the header first gave.
// The model did run, and the counters say so.
func TestInferUnencodableOutputIs500(t *testing.T) {
	lib := emotionLib(t)
	s := NewServer()
	defer s.Drain()
	if err := s.Register("emotion", lib, ModelOptions{Pool: 1}); err != nil {
		t.Fatal(err)
	}
	rec := serveBody(s.Handler(), overflowingBody("emotion", lib))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", rec.Code, rec.Body)
	}
	var reply map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
		t.Fatalf("error body is not JSON: %v: %q", err, rec.Body)
	}
	if msg := reply["error"]; !strings.Contains(msg, "output 0[0] is NaN: not representable in JSON") {
		t.Errorf("error %q does not name the output and index", msg)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q", ct)
	}
	st := s.Stats()[0]
	if st.Completed != 1 || st.Failed != 0 {
		t.Errorf("completed %d failed %d, want 1 and 0: the inference itself succeeded", st.Completed, st.Failed)
	}
	if recs := s.FlightRecorder().Snapshot(); len(recs) != 1 || recs[0].Status != "ok" {
		t.Errorf("flight records %+v, want one with status ok", recs)
	}
}
