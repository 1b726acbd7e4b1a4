package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// eachHealthy is the fleet fan-out: GET path from every healthy worker in
// roster order and hand each 200 body to use. A worker that cannot be
// reached, answers another status, or whose body use rejects is skipped and
// counted as a scrape error — aggregation must degrade, not fail, with half
// the fleet unreachable. The one exception is 404: the worker answered, it
// just does not serve the path (/debugz/cache is npserve's, a bare
// serve.Server has none), so it is skipped without the count.
func (rt *Router) eachHealthy(path string, use func(wi WorkerInfo, body []byte) error) {
	for _, wi := range rt.Workers() {
		if !wi.Healthy {
			continue
		}
		resp, err := rt.client.Get(wi.URL + path)
		if err != nil {
			rt.scrapeErrC.Inc()
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			continue
		}
		if err != nil || resp.StatusCode != http.StatusOK || use(wi, body) != nil {
			rt.scrapeErrC.Inc()
		}
	}
}

// FleetStats is the router's /statsz reply: the fleet roster plus each
// healthy worker's raw /statsz document under its key.
type FleetStats struct {
	UptimeMs float64                    `json:"uptime_ms"`
	Workers  []WorkerInfo               `json:"workers"`
	Routed   float64                    `json:"routed_requests"`
	Retried  float64                    `json:"retried_requests"`
	Failed   float64                    `json:"failed_requests"`
	PerWork  map[string]json.RawMessage `json:"worker_statsz"`
}

// fleetStats assembles the /statsz document; /dashboardz renders the same
// value.
func (rt *Router) fleetStats() FleetStats {
	fs := FleetStats{
		UptimeMs: float64(rt.now().Sub(rt.start)) / float64(time.Millisecond),
		Workers:  rt.Workers(),
		// Our own count: recovering it from the per-worker documents is racy.
		Routed:  rt.routed.Value(),
		Retried: rt.retriedC.Value(),
		Failed:  rt.failedC.Value(),
		PerWork: map[string]json.RawMessage{},
	}
	rt.eachHealthy("/statsz", func(wi WorkerInfo, body []byte) error {
		var raw json.RawMessage
		if err := json.Unmarshal(body, &raw); err != nil {
			return err
		}
		fs.PerWork[wi.Key] = raw
		return nil
	})
	return fs
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSONBody(w, rt.fleetStats())
}

// handleMetrics merges the fleet's Prometheus expositions: the router's own
// np_fleet_* families verbatim, plus every healthy worker's /metricsz with a
// worker="<key>" label injected (obs.Merger semantics: one HELP/TYPE header
// per family fleet-wide).
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := obs.NewMerger()
	var own bytes.Buffer
	rt.metrics.WritePrometheus(&own)
	if err := m.Add("", "", own.Bytes()); err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	rt.eachHealthy("/metricsz", func(wi WorkerInfo, body []byte) error {
		return m.Add("worker", wi.Key, body)
	})
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	m.WriteTo(w)
}

// handleTracez assembles the fleet-wide distributed trace: the router's own
// route spans plus every healthy worker's /tracez export, stitched onto one
// wall-clock timeline with per-worker process rows (obs.StitchChromeTraces).
// ?id=<32 hex trace id> narrows every part to one request — the usual way in:
// take the trace ID a response was stamped with and load the result in
// Perfetto.
func (rt *Router) handleTracez(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	path := "/tracez"
	if id != "" {
		if err := obs.ValidTraceID(id); err != nil {
			writeErr(w, http.StatusBadRequest, err.Error())
			return
		}
		path += "?id=" + id
	}
	spans, names := rt.tracer.Snapshot()
	if id != "" {
		spans = obs.FilterByTraceID(spans, id)
	}
	var own bytes.Buffer
	if err := obs.WriteChromeTraceEpoch(&own, spans, names, rt.tracer.Epoch()); err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	parts := []obs.TracePart{{Label: "router", JSON: own.Bytes()}}
	rt.eachHealthy(path, func(wi WorkerInfo, body []byte) error {
		parts = append(parts, obs.TracePart{Label: "worker " + wi.Key, JSON: body})
		return nil
	})
	w.Header().Set("Content-Type", "application/json")
	if err := obs.StitchChromeTraces(w, parts); err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
	}
}

// FleetDebugRequests is the router's /debugz/requests reply: every healthy
// worker's flight-recorder lanes merged — Recent ordered by completion time,
// Slow worst-first — with per-worker dropped counts summed. Each record
// keeps the worker key its process stamped; one from a worker that never
// set a key gets the key it is registered under.
type FleetDebugRequests struct {
	Workers []string           `json:"workers"`
	Dropped uint64             `json:"dropped"`
	Recent  []obs.FlightRecord `json:"recent"`
	Slow    []obs.FlightRecord `json:"slow"`
}

// debugRequests assembles the /debugz/requests document; /dashboardz renders
// its slow lane.
func (rt *Router) debugRequests() FleetDebugRequests {
	var merged FleetDebugRequests
	keyed := func(key string, recs []obs.FlightRecord) []obs.FlightRecord {
		for i := range recs {
			if recs[i].Worker == "" {
				recs[i].Worker = key
			}
		}
		return recs
	}
	rt.eachHealthy("/debugz/requests", func(wi WorkerInfo, body []byte) error {
		var dr serve.DebugRequestsResponse
		if err := json.Unmarshal(body, &dr); err != nil {
			return err
		}
		merged.Workers = append(merged.Workers, wi.Key)
		merged.Dropped += dr.Dropped
		merged.Recent = append(merged.Recent, keyed(wi.Key, dr.Recent)...)
		merged.Slow = append(merged.Slow, keyed(wi.Key, dr.Slow)...)
		return nil
	})
	sort.Slice(merged.Recent, func(i, j int) bool {
		return merged.Recent[i].UnixMicro < merged.Recent[j].UnixMicro
	})
	sort.Slice(merged.Slow, func(i, j int) bool {
		return merged.Slow[i].TotalMs > merged.Slow[j].TotalMs
	})
	return merged
}

func (rt *Router) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	writeJSONBody(w, rt.debugRequests())
}
