package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/runtime"
	"repro/internal/serve"
)

// newTracedWorker builds one worker the way npserve does: its fleet key
// stamped (so flight records carry it), /debugz/cache mounted, and a
// sensitive slow lane (so every request shows up in the dashboard's slow
// table).
func newTracedWorker(t *testing.T, key string) (*serve.Server, *httptest.Server) {
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
	s.SetWorkerKey(key)
	s.ConfigureFlightRecorder(64, 8, 0.0001)
	cache, err := registry.NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	s.Mount("/debugz/cache", cache.Handler())
	if err := s.Register("emotion", lib, serve.ModelOptions{Pool: 1, QueueDepth: 16}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Drain)
	return s, ts
}

// stitchedFleetTrace decodes the router's /tracez output for assertions.
type stitchedFleetTrace struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		PID  int            `json:"pid"`
		TS   int64          `json:"ts"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// TestFleetTraceEndToEnd is the PR's acceptance test: one request through the
// router with two registered workers yields a single stitched Chrome trace in
// which the router's route span and the executing worker's spans share one
// trace ID, and the executing worker's flight recorder holds a record whose
// trace ID matches the response header.
func TestFleetTraceEndToEnd(t *testing.T) {
	_, w1 := newTracedWorker(t, "w1")
	_, w2 := newTracedWorker(t, "w2")
	rt := NewRouter(Options{})
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()
	registerWorker(t, rts.URL, "w1", w1.URL)
	registerWorker(t, rts.URL, "w2", w2.URL)

	body, _ := json.Marshal(serve.InferRequest{Model: "emotion", Seed: 7})
	resp, err := http.Post(rts.URL+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed infer status %d", resp.StatusCode)
	}
	execWorker := resp.Header.Get(WorkerHeader)
	if execWorker == "" {
		t.Fatalf("missing %s header", WorkerHeader)
	}
	tc, ok := obs.ParseTraceContext(resp.Header.Get(obs.TraceHeader))
	if !ok {
		t.Fatalf("router response %s header %q invalid", obs.TraceHeader, resp.Header.Get(obs.TraceHeader))
	}

	// One stitched trace for the request: router + executing worker rows.
	var doc stitchedFleetTrace
	mustGetJSON(t, rts.URL+"/tracez?id="+tc.TraceID, &doc)
	procNames := map[int]string{}
	spanPIDs := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			procNames[ev.PID] = ev.Args["name"].(string)
			continue
		}
		if ev.Ph != "X" {
			continue
		}
		if got := ev.Args[obs.TraceArg]; got != tc.TraceID {
			t.Errorf("span %q carries trace %v, want %v", ev.Name, got, tc.TraceID)
		}
		spanPIDs[ev.Name] = ev.PID
	}
	routePID, haveRoute := spanPIDs["route:emotion"]
	execPID, haveExec := spanPIDs["execute:emotion"]
	if !haveRoute || !haveExec {
		t.Fatalf("stitched trace missing route (%v) or execute (%v) span: %v", haveRoute, haveExec, spanPIDs)
	}
	if routePID == execPID {
		t.Errorf("router and worker spans share pid %d; stitching lost the process split", routePID)
	}
	if got := procNames[routePID]; !strings.HasPrefix(got, "router") {
		t.Errorf("route span process %q, want a router row", got)
	}
	if got := procNames[execPID]; !strings.HasPrefix(got, "worker "+execWorker) {
		t.Errorf("execute span process %q, want row of executing worker %q", got, execWorker)
	}
	// The worker also traced the request's time in queue.
	if _, ok := spanPIDs["queue-wait:emotion"]; !ok {
		t.Errorf("stitched trace missing the worker queue-wait span: %v", spanPIDs)
	}

	// The executing worker's flight recorder holds the request under the
	// response header's trace ID (checked through the fleet-merged endpoint).
	var merged FleetDebugRequests
	mustGetJSON(t, rts.URL+"/debugz/requests", &merged)
	if len(merged.Workers) != 2 {
		t.Fatalf("merged debugz scraped %v, want both workers", merged.Workers)
	}
	var rec *obs.FlightRecord
	for i := range merged.Recent {
		if merged.Recent[i].TraceID == tc.TraceID {
			rec = &merged.Recent[i]
		}
	}
	if rec == nil {
		t.Fatalf("no flight record for trace %s in merged dump %+v", tc.TraceID, merged.Recent)
	}
	if rec.Worker != execWorker || rec.Status != "ok" || rec.Model != "emotion" {
		t.Errorf("flight record %+v, want ok emotion on worker %s", rec, execWorker)
	}
}

// TestRouterSLOPenaltyReroutes: a worker burning its error budget for a model
// is demoted below in-budget candidates but kept as the fallback of last
// resort.
func TestRouterSLOPenaltyReroutes(t *testing.T) {
	rt := NewRouter(Options{})
	rt.now = func() time.Time { return time.Unix(1_700_000_000, 0) }
	for _, key := range []string{"w1", "w2", "w3"} {
		rt.workers[key] = &workerState{info: WorkerInfo{
			Key: key, URL: "http://" + key, Healthy: true, Models: []string{"emotion"},
		}}
	}
	base := rt.candidates("emotion", 7)
	first := base[0].Key

	// Burn the preferred worker's budget: it drops to the back of the line.
	rt.workers[first].info.SLOBurning = []string{"emotion"}
	reranked := rt.candidates("emotion", 7)
	if reranked[0].Key == first {
		t.Fatalf("burning worker %s still ranked first", first)
	}
	if reranked[len(reranked)-1].Key != first {
		t.Errorf("burning worker %s not demoted to last: %v", first, reranked)
	}
	// A burn on an unrelated model changes nothing.
	rt.workers[first].info.SLOBurning = []string{"other"}
	if again := rt.candidates("emotion", 7); again[0].Key != first {
		t.Errorf("burn on unrelated model demoted %s: %v", first, again)
	}
	// All burning: original rendezvous order holds (everyone is equally bad).
	for _, key := range []string{"w1", "w2", "w3"} {
		rt.workers[key].info.SLOBurning = []string{"emotion"}
	}
	allBurning := rt.candidates("emotion", 7)
	for i := range base {
		if allBurning[i].Key != base[i].Key {
			t.Fatalf("all-burning order %v != rendezvous order %v", allBurning, base)
		}
	}
}

// TestBurningModelsResolvesAliases: an unhealthy SLO on an endpoint name
// penalizes the public aliases routing points at.
func TestBurningModelsResolvesAliases(t *testing.T) {
	h := serve.HealthResponse{
		Aliases: map[string]string{"emotion": "emotion@v2", "other": "other@v1"},
		SLO: []obs.SLOStatus{
			{Model: "emotion@v2", Healthy: false},
			{Model: "other@v1", Healthy: true},
		},
	}
	got := burningModels(h)
	want := []string{"emotion", "emotion@v2"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("burningModels = %v, want %v", got, want)
	}
	if burningModels(serve.HealthResponse{}) != nil {
		t.Error("no SLO state must mean no burning models")
	}
}

// TestDashboardRendersFleet: /dashboardz returns self-contained HTML carrying
// worker rows, model stats, SLO budget bars, and slow-request trace links.
func TestDashboardRendersFleet(t *testing.T) {
	srv, w1 := newTracedWorker(t, "w1")
	srv.SetSLO("emotion", obs.SLO{ObjectiveQuantile: 0.5, ThresholdMs: 60_000})
	rt := NewRouter(Options{})
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()
	registerWorker(t, rts.URL, "w1", w1.URL)
	// A bare serve.Server beside it: no /debugz/cache, no worker key.
	_, bare := newWorker(t, "other")
	registerWorker(t, rts.URL, "w2", bare.URL)

	resp, err := http.Post(rts.URL+"/v1/infer", "application/json",
		bytes.NewReader([]byte(`{"model":"emotion","seed":3}`)))
	if err != nil {
		t.Fatal(err)
	}
	tc, _ := obs.ParseTraceContext(resp.Header.Get(obs.TraceHeader))
	resp.Body.Close()
	rt.CheckWorkers() // refresh the probe so the SLO state reaches the router

	dresp, err := http.Get(rts.URL + "/dashboardz")
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(dresp.Body)
	page := buf.String()
	if ct := dresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("Content-Type = %q, want text/html", ct)
	}
	for _, want := range []string{
		"worker w1",                // roster section
		"<td>emotion</td>",         // model stats row
		"p50",                      // renamed latency column present
		"class=\"bar\"",            // SLO budget bar
		"artifact cache: 0% hit",   // w1's /debugz/cache line
		"/tracez?id=" + tc.TraceID, // slow request links into the stitched trace
	} {
		if !strings.Contains(page, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	if strings.Contains(page, "DOWN") {
		t.Error("healthy worker rendered as DOWN")
	}
	if n := strings.Count(page, "artifact cache:"); n != 1 {
		t.Errorf("%d cache lines, want one: w2 serves no /debugz/cache", n)
	}
	if errs := rt.scrapeErrC.Value(); errs != 0 {
		t.Errorf("%v scrape errors: a worker answering 404 is not a failed scrape", errs)
	}
}
