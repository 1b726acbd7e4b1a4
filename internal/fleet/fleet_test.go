package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/models"
	"repro/internal/runtime"
	"repro/internal/serve"
)

func newWorker(t *testing.T, model string) (*serve.Server, *httptest.Server) {
	t.Helper()
	m, err := models.BuildEmotion(models.SizeLite)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := runtime.Build(m, runtime.BuildOptions{OptLevel: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := serve.NewServer()
	if err := s.Register(model, lib, serve.ModelOptions{Pool: 1, QueueDepth: 16}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Drain)
	return s, ts
}

func registerWorker(t *testing.T, routerURL, key, workerURL string) {
	t.Helper()
	body, _ := json.Marshal(RegisterRequest{Key: key, URL: workerURL})
	resp, err := http.Post(routerURL+"/fleet/register", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register %s: status %d", key, resp.StatusCode)
	}
}

func inferVia(t *testing.T, routerURL string, seed uint64) (*http.Response, serve.InferResponse) {
	t.Helper()
	body, _ := json.Marshal(serve.InferRequest{Model: "emotion", Seed: seed})
	resp, err := http.Post(routerURL+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ir serve.InferResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
			t.Fatal(err)
		}
	}
	return resp, ir
}

// TestRouterRoutesConsistentlyAndFailsOver is the tracker/router core: two
// registered workers serve one model, the same (model, seed) always lands on
// the same worker, and killing a worker reroutes its shards to the survivor
// while the roster marks it unhealthy.
func TestRouterRoutesConsistentlyAndFailsOver(t *testing.T) {
	_, w1 := newWorker(t, "emotion")
	_, w2 := newWorker(t, "emotion")
	rt := NewRouter(Options{HealthInterval: 10 * time.Millisecond, HeartbeatTimeout: time.Hour})
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	registerWorker(t, rts.URL, "w1", w1.URL)
	registerWorker(t, rts.URL, "w2", w2.URL)

	// Consistent routing: each seed pins to one worker across repeats.
	pinned := map[uint64]string{}
	usedWorkers := map[string]bool{}
	for _, seed := range []uint64{1, 2, 3, 4, 5, 6, 7, 8} {
		for rep := 0; rep < 2; rep++ {
			resp, ir := inferVia(t, rts.URL, seed)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("seed %d: status %d", seed, resp.StatusCode)
			}
			if len(ir.Outputs) == 0 {
				t.Fatalf("seed %d: no outputs", seed)
			}
			wk := resp.Header.Get(WorkerHeader)
			if wk == "" {
				t.Fatalf("seed %d: missing %s header", seed, WorkerHeader)
			}
			usedWorkers[wk] = true
			if prev, ok := pinned[seed]; ok && prev != wk {
				t.Fatalf("seed %d routed to %s then %s: not consistent", seed, prev, wk)
			}
			pinned[seed] = wk
		}
	}
	if len(usedWorkers) != 2 {
		t.Errorf("8 seeds all routed to %v; want both workers used", usedWorkers)
	}

	// Kill w1: its shards fail over to w2, and the roster notices.
	w1.Close()
	for seed := uint64(1); seed <= 8; seed++ {
		resp, _ := inferVia(t, rts.URL, seed)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d after kill: status %d", seed, resp.StatusCode)
		}
		if wk := resp.Header.Get(WorkerHeader); wk != "w2" {
			t.Fatalf("seed %d after kill routed to %q, want w2", seed, wk)
		}
	}
	var roster struct{ Workers []WorkerInfo }
	mustGetJSON(t, rts.URL+"/fleet/workers", &roster)
	states := map[string]bool{}
	for _, wi := range roster.Workers {
		states[wi.Key] = wi.Healthy
	}
	if states["w1"] || !states["w2"] {
		t.Errorf("roster health %v, want w1 down, w2 up", states)
	}

	// Unknown model: no candidates, 503.
	body, _ := json.Marshal(serve.InferRequest{Model: "nope", Seed: 1})
	resp, err := http.Post(rts.URL+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("unknown model status %d, want 503", resp.StatusCode)
	}
}

// TestRouterAggregatesStatsAndMetrics pins the fleet observability surface:
// /statsz nests each worker's document under its key, and /metricsz merges
// worker expositions under injected worker labels alongside np_fleet_*.
func TestRouterAggregatesStatsAndMetrics(t *testing.T) {
	_, w1 := newWorker(t, "emotion")
	_, w2 := newWorker(t, "emotion")
	rt := NewRouter(Options{})
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()
	registerWorker(t, rts.URL, "w1", w1.URL)
	registerWorker(t, rts.URL, "w2", w2.URL)
	for seed := uint64(1); seed <= 4; seed++ {
		if resp, _ := inferVia(t, rts.URL, seed); resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d", seed, resp.StatusCode)
		}
	}

	var fs FleetStats
	mustGetJSON(t, rts.URL+"/statsz", &fs)
	if len(fs.Workers) != 2 {
		t.Fatalf("statsz workers %d, want 2", len(fs.Workers))
	}
	if fs.Routed != 4 {
		t.Errorf("statsz routed %v, want 4", fs.Routed)
	}
	for _, key := range []string{"w1", "w2"} {
		if _, ok := fs.PerWork[key]; !ok {
			t.Errorf("statsz missing worker_statsz[%q]", key)
		}
	}

	resp, err := http.Get(rts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	expo := string(text)
	for _, want := range []string{
		"np_fleet_workers_registered 2",
		"np_fleet_workers_healthy 2",
		"np_fleet_routed_requests_total{",
		"np_fleet_retried_requests_total 0",
		"np_fleet_failed_requests_total 0",
		`worker="w1"`,
		`worker="w2"`,
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("merged /metricsz missing %q", want)
		}
	}
	// Worker families appear once, with per-worker series beneath.
	if n := strings.Count(expo, "# TYPE serve_uptime_seconds gauge"); n != 1 {
		t.Errorf("serve_uptime_seconds TYPE header appears %d times, want 1", n)
	}
}

// TestAgentLifecycle: Run registers, heartbeats, and re-registers after the
// router forgets the worker.
func TestAgentLifecycle(t *testing.T) {
	_, w1 := newWorker(t, "emotion")
	rt := NewRouter(Options{})
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a := &Agent{RouterURL: rts.URL, Key: "w1", SelfURL: w1.URL, Interval: 10 * time.Millisecond}
	done := make(chan struct{})
	go func() { defer close(done); a.Run(ctx) }()

	waitFor(t, "agent registered and heartbeating", func() bool {
		for _, wi := range rt.Workers() {
			if wi.Key == "w1" && wi.Healthy && wi.Beats > 0 {
				return true
			}
		}
		return false
	})

	// Router loses state (restart): the 404 heartbeat triggers re-register.
	rt.Deregister("w1")
	waitFor(t, "agent re-registered", func() bool {
		for _, wi := range rt.Workers() {
			if wi.Key == "w1" && wi.Healthy {
				return true
			}
		}
		return false
	})

	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("agent did not stop on ctx cancel")
	}
}

// TestCheckWorkersExpiresDeadWorker: a worker that stops answering health
// probes is marked unhealthy by the probe loop and skipped by routing.
func TestCheckWorkersExpiresDeadWorker(t *testing.T) {
	_, w1 := newWorker(t, "emotion")
	rt := NewRouter(Options{Client: &http.Client{Timeout: 200 * time.Millisecond}})
	if err := rt.Register("w1", w1.URL); err != nil {
		t.Fatal(err)
	}
	if ws := rt.Workers(); !ws[0].Healthy {
		t.Fatal("worker should be healthy after synchronous register probe")
	}
	if got := len(rt.candidates("emotion", 1)); got != 1 {
		t.Fatalf("candidates = %d, want 1", got)
	}
	w1.Close()
	rt.CheckWorkers()
	if ws := rt.Workers(); ws[0].Healthy {
		t.Fatal("worker should be unhealthy after failed probe")
	}
	if got := len(rt.candidates("emotion", 1)); got != 0 {
		t.Fatalf("candidates after death = %d, want 0", got)
	}
}

func mustGetJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestFleetStatsKeysPinned: benchmark/ and the CI artifact readers depend on
// the /statsz document's keys, top level and roster rows.
func TestFleetStatsKeysPinned(t *testing.T) {
	_, w1 := newWorker(t, "emotion")
	rt := NewRouter(Options{})
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()
	registerWorker(t, rts.URL, "w1", w1.URL)

	var raw map[string]json.RawMessage
	mustGetJSON(t, rts.URL+"/statsz", &raw)
	pinned := []string{"uptime_ms", "workers", "routed_requests", "retried_requests", "failed_requests", "worker_statsz"}
	for _, key := range pinned {
		if _, ok := raw[key]; !ok {
			t.Errorf("statsz missing pinned key %q", key)
		}
	}
	if len(raw) != len(pinned) {
		t.Errorf("statsz has %d keys, want the %d pinned ones", len(raw), len(pinned))
	}
	var roster []map[string]json.RawMessage
	if err := json.Unmarshal(raw["workers"], &roster); err != nil || len(roster) != 1 {
		t.Fatalf("workers: %v, %d rows", err, len(roster))
	}
	for _, key := range []string{"key", "url", "models", "healthy", "draining", "probes", "beats"} {
		if _, ok := roster[0][key]; !ok {
			t.Errorf("roster row missing pinned key %q", key)
		}
	}
	var perWorker map[string]serve.StatsResponse
	if err := json.Unmarshal(raw["worker_statsz"], &perWorker); err != nil || len(perWorker["w1"].Models) != 1 {
		t.Errorf("worker_statsz[w1] is not the worker's /statsz document: %v", err)
	}
}

// TestRouterBodyCap: the router reads at most serve.MaxInferBody bytes of an
// inference and maxControlBody of a control request; longer bodies get 413.
func TestRouterBodyCap(t *testing.T) {
	h := NewRouter(Options{}).Handler()
	cases := []struct {
		path  string
		limit int
	}{
		{"/v1/infer", serve.MaxInferBody},
		{"/fleet/register", maxControlBody},
		{"/fleet/heartbeat", maxControlBody},
		{"/fleet/deregister", maxControlBody},
	}
	for _, tc := range cases {
		t.Run(tc.path, func(t *testing.T) {
			huge := `{"key":"` + strings.Repeat("a", tc.limit) + `"}`
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(huge)))
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Errorf("oversized body: status %d, want 413: %s", rec.Code, rec.Body)
			}
			rec = httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(`{"key":"w9"}`)))
			if rec.Code == http.StatusRequestEntityTooLarge {
				t.Errorf("ordinary body: status 413: %s", rec.Body)
			}
		})
	}
}
