package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/models"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestHTTPInferSeedMatchesSubmit(t *testing.T) {
	lib := emotionLib(t)
	s := NewServer()
	if err := s.Register("emotion", lib, ModelOptions{Pool: 1}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/infer", InferRequest{Model: "emotion", Seed: 7})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var ir InferResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Model != "emotion" || len(ir.Outputs) == 0 || ir.BatchSize < 1 {
		t.Fatalf("bad response: %+v", ir)
	}

	// The HTTP path must agree with a direct Submit of the same seed.
	inName := runtime.NewGraphModule(lib).InputNames()[0]
	direct, err := s.Submit(context.Background(), "emotion",
		map[string]*tensor.Tensor{inName: models.RandomInput(lib.Module, 7)})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range ir.Outputs {
		want := direct.Outputs[i]
		if len(o.Data) != want.Elems() {
			t.Fatalf("output %d: %d elements, want %d", i, len(o.Data), want.Elems())
		}
		for j, v := range o.Data {
			if v != want.GetF(j) {
				t.Fatalf("output %d[%d] = %g, want %g", i, j, v, want.GetF(j))
			}
		}
	}
	if ir.SimMs <= 0 {
		t.Errorf("sim_ms = %g, want > 0", ir.SimMs)
	}
}

func TestHTTPInferExplicitInputs(t *testing.T) {
	lib := emotionLib(t)
	s := NewServer()
	if err := s.Register("emotion", lib, ModelOptions{Pool: 1}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	inName := runtime.NewGraphModule(lib).InputNames()[0]
	in := models.RandomInput(lib.Module, 5)
	data := make([]float64, in.Elems())
	for i := range data {
		data[i] = in.GetF(i)
	}
	resp, body := postJSON(t, ts.URL+"/v1/infer",
		InferRequest{Model: "emotion", Inputs: map[string][]float64{inName: data}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}

	// Wrong element count → 400.
	resp, _ = postJSON(t, ts.URL+"/v1/infer",
		InferRequest{Model: "emotion", Inputs: map[string][]float64{inName: {1, 2, 3}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("short input: status %d, want 400", resp.StatusCode)
	}
}

func TestHTTPStatusCodes(t *testing.T) {
	lib := emotionLib(t)
	s := NewServer()
	if err := s.Register("emotion", lib, ModelOptions{Pool: 1}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, _ := postJSON(t, ts.URL+"/v1/infer", InferRequest{Model: "missing"})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown model: status %d, want 404", resp.StatusCode)
	}

	r2, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad json: status %d, want 400", r2.StatusCode)
	}

	r3, err := http.Get(ts.URL + "/v1/infer")
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET infer: status %d, want 405", r3.StatusCode)
	}

	if httpStatus(ErrOverloaded) != http.StatusTooManyRequests {
		t.Error("ErrOverloaded must map to 429")
	}
	if httpStatus(ErrDraining) != http.StatusServiceUnavailable {
		t.Error("ErrDraining must map to 503")
	}
	if httpStatus(context.DeadlineExceeded) != http.StatusGatewayTimeout {
		t.Error("DeadlineExceeded must map to 504")
	}
}

func TestHTTPHealthAndStats(t *testing.T) {
	lib := emotionLib(t)
	s := NewServer()
	if err := s.Register("emotion", lib, ModelOptions{Pool: 1}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Serve one request so stats are non-trivial.
	if resp, body := postJSON(t, ts.URL+"/v1/infer", InferRequest{Model: "emotion", Seed: 1}); resp.StatusCode != 200 {
		t.Fatalf("infer: %d %s", resp.StatusCode, body)
	}

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status   string   `json:"status"`
		Draining bool     `json:"draining"`
		Models   []string `json:"models"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if health.Status != "ok" || health.Draining || len(health.Models) != 1 {
		t.Errorf("bad health: %+v", health)
	}

	sr, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	if err := json.NewDecoder(sr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if len(stats.Models) != 1 || stats.Models[0].Completed != 1 {
		t.Errorf("bad stats: %+v", stats)
	}
	if stats.DeviceMs["cpu"] <= 0 {
		t.Errorf("cpu busy %g, want > 0", stats.DeviceMs["cpu"])
	}
	if stats.Models[0].Latency.P50Ms <= 0 {
		t.Errorf("p50 latency %g, want > 0", stats.Models[0].Latency.P50Ms)
	}
}

func TestHTTPShowcase(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three models")
	}
	s := NewServer()
	if err := s.RegisterShowcase(app.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/showcase",
		ShowcaseRequest{Frames: 1, Faces: 1, Objects: 1, Seed: 42})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr ShowcaseResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Frames) != 1 || sr.TotalSimMs <= 0 {
		t.Fatalf("bad showcase response: %+v", sr)
	}

	resp, _ = postJSON(t, ts.URL+"/v1/showcase", ShowcaseRequest{Frames: 1000})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("frames cap: status %d, want 400", resp.StatusCode)
	}
}

func TestHTTPShowcaseUnregistered(t *testing.T) {
	s := NewServer()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, _ := postJSON(t, ts.URL+"/v1/showcase", ShowcaseRequest{Frames: 1})
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("status %d, want 501", resp.StatusCode)
	}
}

// TestRequestBodyCap: the POST handlers read at most MaxInferBody bytes and
// answer a longer body with 413; an ordinary body passes the edge.
func TestRequestBodyCap(t *testing.T) {
	s := NewServer()
	s.showcase = &showcaseEndpoint{} // decoding comes before the first use of the app
	h := s.Handler()
	huge := `{"model":"` + strings.Repeat("a", MaxInferBody) + `"}`
	cases := []struct {
		path, ordinary string
		ordinaryStatus int
	}{
		{"/v1/infer", `{"model":"nope"}`, http.StatusNotFound},
		{"/v1/showcase", `{"frames":65}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.path, func(t *testing.T) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(huge)))
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Errorf("oversized body: status %d, want 413: %s", rec.Code, rec.Body)
			}
			rec = httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.ordinary)))
			if rec.Code != tc.ordinaryStatus {
				t.Errorf("ordinary body: status %d, want %d: %s", rec.Code, tc.ordinaryStatus, rec.Body)
			}
		})
	}
}
