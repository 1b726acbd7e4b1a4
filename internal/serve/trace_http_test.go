package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/frontend/keras"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

// TestInferTraceRoundTrip pins the single-worker trace contract: a request
// without a trace header gets one minted, the response header and body agree,
// the flight recorder retains a record under the same trace ID, and
// /tracez?id= narrows the span export to that request.
func TestInferTraceRoundTrip(t *testing.T) {
	lib := emotionLib(t)
	s := NewServer()
	s.SetWorkerKey("d9000-0")
	if err := s.Register("emotion", lib, ModelOptions{Pool: 1}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// An explicit-input request, so every stage of the request path has work.
	in := models.RandomInput(lib.Module, 1)
	data := make([]float64, in.Elems())
	for i := range data {
		data[i] = in.GetF(i)
	}
	resp, body := postJSON(t, ts.URL+"/v1/infer",
		InferRequest{Model: "emotion", Inputs: map[string][]float64{lib.Module.Main().Params[0].Name: data}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("infer status %d: %s", resp.StatusCode, body)
	}
	tc, ok := obs.ParseTraceContext(resp.Header.Get(obs.TraceHeader))
	if !ok {
		t.Fatalf("response %s header %q is not a valid trace context",
			obs.TraceHeader, resp.Header.Get(obs.TraceHeader))
	}
	var ir InferResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.TraceID != tc.TraceID {
		t.Fatalf("body trace_id %q != header trace id %q", ir.TraceID, tc.TraceID)
	}

	// The flight recorder holds the request under the same trace ID, with the
	// worker key and device set stamped.
	_, dbg := getBody(t, ts.URL+"/debugz/requests")
	var dr DebugRequestsResponse
	if err := json.Unmarshal(dbg, &dr); err != nil {
		t.Fatal(err)
	}
	if !dr.Enabled || dr.SlowThresholdMs != DefaultSlowThresholdMs {
		t.Errorf("debugz state = enabled %v threshold %v, want enabled with default threshold",
			dr.Enabled, dr.SlowThresholdMs)
	}
	var rec *obs.FlightRecord
	for i := range dr.Recent {
		if dr.Recent[i].TraceID == tc.TraceID {
			rec = &dr.Recent[i]
		}
	}
	if rec == nil {
		t.Fatalf("no flight record for trace %s in %+v", tc.TraceID, dr.Recent)
	}
	if rec.Model != "emotion" || rec.Status != "ok" || rec.Worker != "d9000-0" {
		t.Errorf("flight record = %+v, want model emotion / ok / worker d9000-0", rec)
	}
	if rec.Devices == "" || rec.TotalMs <= 0 {
		t.Errorf("flight record missing device set or timing: %+v", rec)
	}

	// /tracez?id= filters to this request's spans only, and reads as the
	// request path: decode → queue-wait → execute → encode, the handler's two
	// spans on the shared http track and the worker's two on its own.
	_, tr := getBody(t, ts.URL+"/tracez?id="+tc.TraceID)
	var doc struct {
		EpochUnixUs int64 `json:"epochUnixUs"`
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(tr, &doc); err != nil {
		t.Fatalf("filtered trace is not JSON: %v\n%s", err, tr)
	}
	if doc.EpochUnixUs == 0 {
		t.Error("trace export lost the tracer epoch (stitching needs it)")
	}
	threads := map[int]string{}
	startOf, threadOf := map[string]int64{}, map[string]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			threads[ev.Tid], _ = ev.Args["name"].(string)
		}
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Args[obs.TraceArg] != tc.TraceID {
			t.Errorf("span %q in filtered export lacks the trace arg: %v", ev.Name, ev.Args)
		}
		startOf[ev.Name], threadOf[ev.Name] = ev.Ts, threads[ev.Tid]
	}
	path := []string{"decode:emotion", "queue-wait:emotion", "execute:emotion", "encode:emotion"}
	for i, name := range path {
		if _, ok := startOf[name]; !ok {
			t.Fatalf("filtered trace has no %s span: %v", name, startOf)
		}
		if i > 0 && startOf[name] < startOf[path[i-1]] {
			t.Errorf("%s starts at %d µs, before %s at %d µs", name, startOf[name], path[i-1], startOf[path[i-1]])
		}
	}
	for _, name := range []string{"decode:emotion", "encode:emotion"} {
		if threadOf[name] != "http" {
			t.Errorf("%s is on track %q, want the server's http track", name, threadOf[name])
		}
	}
	if threadOf["execute:emotion"] != "emotion/worker0" {
		t.Errorf("execute span is on track %q, want emotion/worker0", threadOf["execute:emotion"])
	}
}

// TestInferAdoptsCallerTrace: a request arriving with a trace header (a
// router hop) keeps the trace ID and mints a fresh span ID for this edge.
func TestInferAdoptsCallerTrace(t *testing.T) {
	lib := emotionLib(t)
	s := NewServer()
	if err := s.Register("emotion", lib, ModelOptions{Pool: 1}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	up := obs.MintTrace()
	payload, _ := json.Marshal(InferRequest{Model: "emotion", Seed: 1})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/infer", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceHeader, up.String())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("infer status %d", resp.StatusCode)
	}
	tc, ok := obs.ParseTraceContext(resp.Header.Get(obs.TraceHeader))
	if !ok {
		t.Fatalf("bad response trace header %q", resp.Header.Get(obs.TraceHeader))
	}
	if tc.TraceID != up.TraceID {
		t.Errorf("worker replaced the caller's trace id: %s != %s", tc.TraceID, up.TraceID)
	}
	if tc.SpanID == up.SpanID {
		t.Error("worker forwarded the caller's span id instead of minting a child")
	}
}

func TestTracezRejectsBadID(t *testing.T) {
	s := NewServer()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, _ := getBody(t, ts.URL+"/tracez?id=nothex")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed ?id= got status %d, want 400", resp.StatusCode)
	}
}

// TestHealthzAndMetricszCarrySLO: a configured objective shows up in the
// /healthz slo block and as np_slo_* gauges on /metricsz.
func TestHealthzAndMetricszCarrySLO(t *testing.T) {
	lib := emotionLib(t)
	s := NewServer()
	if err := s.Register("emotion", lib, ModelOptions{Pool: 1}); err != nil {
		t.Fatal(err)
	}
	s.SetSLO("emotion", obs.SLO{ObjectiveQuantile: 0.5, ThresholdMs: 60_000})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, body := postJSON(t, ts.URL+"/v1/infer", InferRequest{Model: "emotion", Seed: 1}); resp.StatusCode != http.StatusOK {
		t.Fatalf("infer status %d: %s", resp.StatusCode, body)
	}

	_, hb := getBody(t, ts.URL+"/healthz")
	var hr HealthResponse
	if err := json.Unmarshal(hb, &hr); err != nil {
		t.Fatal(err)
	}
	if len(hr.SLO) != 1 {
		t.Fatalf("healthz slo block = %+v, want one entry", hr.SLO)
	}
	st := hr.SLO[0]
	if st.Model != "emotion" || st.Requests != 1 || !st.Healthy {
		t.Errorf("slo status = %+v, want emotion with 1 healthy request", st)
	}

	_, mb := getBody(t, ts.URL+"/metricsz")
	for _, want := range []string{
		`np_slo_healthy{model="emotion"} 1`,
		`np_slo_window_requests{model="emotion"} 1`,
		`np_slo_burn_rate{model="emotion"} 0`,
	} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("metricsz missing %q", want)
		}
	}
}

// TestOwnExecuteSpanVisibleOnReply: a client that reads /tracez?id= the
// moment it has its reply finds its own execute span. Two requests ride each
// batch, so the one answered first asks while the worker is still running
// the other — the span must already be on the track, not emitted after the
// batch. The model is tiny and the reply is taken from Submit, so the read
// follows the reply by microseconds.
func TestOwnExecuteSpanVisibleOnReply(t *testing.T) {
	seq := keras.NewSequential("tiny", 7).Input(16, 16, 3).
		Conv2D(4, 3, 1, "same", "relu").Flatten().Dense(4, "softmax")
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
	s := NewServer()
	if err := s.Register("tiny", lib, ModelOptions{Pool: 1, MaxBatch: 2, BatchWindow: time.Second}); err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	h := s.Handler()
	inputs := map[string]*tensor.Tensor{mod.Main().Params[0].Name: models.RandomInput(mod, 1)}

	// Returns errors, not t.Fatal: it runs off the test goroutine.
	submitThenTrace := func() error {
		tc := obs.MintTrace()
		if _, err := s.Submit(obs.WithTrace(context.Background(), tc), "tiny", inputs); err != nil {
			return err
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/tracez?id="+tc.TraceID, nil))
		if !bytes.Contains(rec.Body.Bytes(), []byte(`"execute:tiny"`)) {
			return fmt.Errorf("trace %s read right after its reply has no execute span:\n%s", tc.TraceID, rec.Body)
		}
		return nil
	}
	for round := 0; round < 200 && !t.Failed(); round++ {
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := submitThenTrace(); err != nil {
					t.Errorf("round %d: %v", round, err)
				}
			}()
		}
		wg.Wait()
	}
}
