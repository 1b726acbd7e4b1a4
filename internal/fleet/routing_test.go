package fleet

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/models"
	"repro/internal/obs"
)

// twoWorkerFleet is a router in front of two workers serving lite emotion.
func twoWorkerFleet(t *testing.T) (*Router, string) {
	t.Helper()
	_, w1 := newWorker(t, "emotion")
	_, w2 := newWorker(t, "emotion")
	rt := NewRouter(Options{HealthInterval: 10 * time.Millisecond, HeartbeatTimeout: time.Hour})
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	registerWorker(t, rts.URL, "w1", w1.URL)
	registerWorker(t, rts.URL, "w2", w2.URL)
	return rt, rts.URL
}

func postRaw(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/infer", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(raw)
}

func allHealthy(rt *Router) bool {
	ws := rt.Workers()
	return routable(ws) == len(ws)
}

// emotionBody is an explicit-input request for lite emotion, every element
// set to value, with the seed after the array.
func emotionBody(t *testing.T, value string, seed uint64) string {
	t.Helper()
	m, err := models.BuildEmotion(models.SizeLite)
	if err != nil {
		t.Fatal(err)
	}
	values := strings.TrimSuffix(strings.Repeat(value+",", models.InputShape(m).Elems()), ",")
	return `{"model":"emotion","inputs":{"` + m.Main().Params[0].Name + `":[` + values + `]},"seed":` + strconv.FormatUint(seed, 10) + `}`
}

// TestRouterInferBodies: the router reads a body with the worker's decoder.
// An explicit-input request lands where its (model, seed) puts a seed
// request, forwarded untouched; a body a worker would refuse is refused at
// the edge in the worker's words, is not counted as routed and costs no
// worker its health; a body only a worker can judge is the worker's answer,
// relayed with its header and trace context.
func TestRouterInferBodies(t *testing.T) {
	rt, url := twoWorkerFleet(t)

	// Where each seed lands, from plain seed requests.
	home := map[uint64]string{}
	for seed := uint64(1); seed <= 8; seed++ {
		resp, body := postRaw(t, url, `{"model":"emotion","seed":`+strconv.FormatUint(seed, 10)+`}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, resp.StatusCode, body)
		}
		home[seed] = resp.Header.Get(WorkerHeader)
		tc, ok := obs.ParseTraceContext(resp.Header.Get(obs.TraceHeader))
		var reply struct {
			TraceID string `json:"trace_id"`
		}
		if err := json.Unmarshal([]byte(body), &reply); err != nil || !ok || reply.TraceID != tc.TraceID {
			t.Fatalf("seed %d: reply trace_id %q, header %q (%v)", seed, reply.TraceID, resp.Header.Get(obs.TraceHeader), err)
		}
	}

	routed := rt.routed.Value()
	for seed := uint64(1); seed <= 8; seed++ {
		// The seed follows the array: routing reads past the numbers to it.
		resp, body := postRaw(t, url, emotionBody(t, "0.5", seed))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: explicit request: status %d: %s", seed, resp.StatusCode, body)
		}
		if wk := resp.Header.Get(WorkerHeader); wk == "" || wk != home[seed] {
			t.Errorf("seed %d: explicit request answered by %q, seed requests by %q", seed, wk, home[seed])
		}
	}
	if got := rt.routed.Value() - routed; got != 8 {
		t.Errorf("%v of 8 explicit requests counted as routed", got)
	}

	routed = rt.routed.Value()
	cases := []struct {
		name, body string
		status     int
		byWorker   bool
	}{
		{"escaped key, decoded by encoding/json", `{"mod\u0065l":"emotion","seed":3}`, http.StatusOK, true},
		{"unknown key beside the envelope", `{"model":"emotion","seed":3,"priority":[1,{"a":"]"}]}`, http.StatusOK, true},
		{"inputs the worker cannot bind", `{"model":"emotion","inputs":{"x":[1,2,3]}}`, http.StatusBadRequest, true},
		{"malformed number", emotionBody(t, "1.", 3), http.StatusBadRequest, false},
		{"number out of range", `{"model":"emotion","inputs":{"x":[1e400]}}`, http.StatusBadRequest, false},
		{"not JSON", `{not json`, http.StatusBadRequest, false},
		{"truncated envelope", `{"model":"emotion","seed":`, http.StatusBadRequest, false},
		{"model of the wrong type", `{"model":5}`, http.StatusBadRequest, false},
		{"fractional seed", `{"model":"emotion","seed":1.5}`, http.StatusBadRequest, false},
		{"inputs that never close", `{"model":"emotion","inputs":{"x":[1,2`, http.StatusBadRequest, false},
		{"trailing bytes", `{"model":"emotion","seed":3} x`, http.StatusBadRequest, false},
		{"no such model", `{"model":"nope","seed":3}`, http.StatusServiceUnavailable, false},
	}
	relayed := 0.0
	for _, tc := range cases {
		if tc.byWorker {
			relayed++
		}
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postRaw(t, url, tc.body)
			if resp.StatusCode != tc.status {
				t.Errorf("status %d, want %d: %s", resp.StatusCode, tc.status, body)
			}
			if got := resp.Header.Get(WorkerHeader) != ""; got != tc.byWorker {
				t.Errorf("answered by a worker: %v, want %v: %s", got, tc.byWorker, body)
			}
			if tc.status == http.StatusBadRequest && !tc.byWorker && !strings.HasPrefix(body, `{"error":"bad request body: `) {
				t.Errorf("router's 400 reads %q", body)
			}
			if _, ok := obs.ParseTraceContext(resp.Header.Get(obs.TraceHeader)); tc.byWorker && !ok {
				t.Error("relayed reply carries no trace context")
			}
		})
	}
	if got := rt.routed.Value() - routed; got != relayed {
		t.Errorf("%v requests counted as routed, %v were answered by a worker", got, relayed)
	}
	if !allHealthy(rt) {
		t.Errorf("a worker lost its health: %+v", rt.Workers())
	}
}

// TestRouterRelaysUnencodableOutput: a request whose outputs have no JSON
// form reaches the client as the worker's 500 and its error body, not as a
// routed 200 with nothing in it.
func TestRouterRelaysUnencodableOutput(t *testing.T) {
	rt, url := twoWorkerFleet(t)
	m, err := models.BuildEmotion(models.SizeLite)
	if err != nil {
		t.Fatal(err)
	}
	// Beyond float32's range: ±Inf once bound, NaN out of the model.
	values := strings.TrimSuffix(strings.Repeat("1e39,-1e39,", models.InputShape(m).Elems()/2), ",")
	resp, body := postRaw(t, url, `{"model":"emotion","inputs":{"`+m.Main().Params[0].Name+`":[`+values+`]}}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", resp.StatusCode, body)
	}
	var reply map[string]string
	if err := json.Unmarshal([]byte(body), &reply); err != nil || !strings.Contains(reply["error"], "is NaN: not representable in JSON") {
		t.Errorf("error body %q (%v) does not say what could not be encoded", body, err)
	}
	if resp.Header.Get(WorkerHeader) == "" {
		t.Error("relayed 500 does not name its worker")
	}
	if !allHealthy(rt) {
		t.Errorf("a worker lost its health for answering 500: %+v", rt.Workers())
	}
}
