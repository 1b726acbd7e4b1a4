package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// WorkerInfo is one registered worker as reported on /fleet/workers.
type WorkerInfo struct {
	// Key is the worker's device key (tracker vocabulary): a stable name for
	// the device class + instance this worker serves on, e.g. "d9000-0".
	Key string `json:"key"`
	// URL is the worker's base URL (scheme://host:port).
	URL string `json:"url"`
	// Models are the routable model names from the worker's last /healthz
	// probe (endpoints and aliases both count).
	Models []string `json:"models,omitempty"`
	// Healthy means the last probe succeeded and the heartbeat is fresh.
	Healthy bool `json:"healthy"`
	// Draining means the worker answered its probe but refuses new work.
	Draining bool `json:"draining"`
	// Probes/Beats count health checks answered and heartbeats received.
	Probes uint64 `json:"probes"`
	Beats  uint64 `json:"beats"`
	// SLOBurning lists the routable model names whose SLO burn rate exceeded
	// 1.0 on the worker's last probe (endpoint names and the public aliases
	// pointing at them). Routing demotes the worker for those models.
	SLOBurning []string `json:"slo_burning,omitempty"`
}

type workerState struct {
	info     WorkerInfo
	lastBeat time.Time
	// slo is the worker's full per-model objective state from its last probe
	// (the /healthz slo block); the dashboard renders budget bars from it.
	slo []obs.SLOStatus
}

// RegisterRequest is the /fleet/register body a worker posts on startup.
type RegisterRequest struct {
	Key string `json:"key"`
	URL string `json:"url"`
}

// Register adds (or re-adds) a worker and probes it synchronously, so a
// successful registration means the worker is routable immediately.
func (rt *Router) Register(key, url string) error {
	if key == "" || url == "" {
		return errors.New("fleet: register needs key and url")
	}
	rt.mu.Lock()
	w, ok := rt.workers[key]
	if !ok {
		w = &workerState{}
		rt.workers[key] = w
	}
	w.info.Key, w.info.URL = key, url
	w.lastBeat = rt.now()
	rt.mu.Unlock()
	rt.probe(key)
	rt.updateGauges()
	return nil
}

// Heartbeat refreshes a worker's liveness; unknown keys error so the agent
// re-registers (the tracker may have restarted and lost state).
func (rt *Router) Heartbeat(key string) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	w, ok := rt.workers[key]
	if !ok {
		return fmt.Errorf("fleet: unknown worker %q", key)
	}
	w.lastBeat = rt.now()
	w.info.Beats++
	return nil
}

// Deregister removes a worker (graceful shutdown path).
func (rt *Router) Deregister(key string) {
	rt.mu.Lock()
	delete(rt.workers, key)
	rt.mu.Unlock()
	rt.updateGauges()
}

// Workers snapshots the fleet state, sorted by key.
func (rt *Router) Workers() []WorkerInfo {
	rt.mu.RLock()
	out := make([]WorkerInfo, 0, len(rt.workers))
	for _, w := range rt.workers {
		out = append(out, w.info)
	}
	rt.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// sloOf returns the worker's per-model objective state from its last probe.
// probe replaces the slice whole and never edits it, so it is shared.
func (rt *Router) sloOf(key string) []obs.SLOStatus {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if w, ok := rt.workers[key]; ok {
		return w.slo
	}
	return nil
}

// probe health-checks one worker and folds the result into its state.
func (rt *Router) probe(key string) {
	rt.mu.RLock()
	w, ok := rt.workers[key]
	var url string
	if ok {
		url = w.info.URL
	}
	rt.mu.RUnlock()
	if !ok {
		return
	}
	var h serve.HealthResponse
	err := rt.getJSON(url+"/healthz", &h)
	rt.mu.Lock()
	if w, ok := rt.workers[key]; ok {
		if err != nil {
			w.info.Healthy = false
		} else {
			w.info.Healthy = true
			w.info.Draining = h.Draining
			w.info.Models = h.Models
			w.info.SLOBurning = burningModels(h)
			w.slo = h.SLO
			w.info.Probes++
			w.lastBeat = rt.now()
		}
	}
	rt.mu.Unlock()
}

func (rt *Router) getJSON(url string, v any) error {
	resp, err := rt.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// burningModels extracts the routable names whose SLO is unhealthy from a
// worker's health report. SLOs are tracked per endpoint name ("model@version"
// for registry deploys), but routing addresses public aliases — so every
// alias pointing at a burning endpoint is penalized under its public name
// too.
func burningModels(h serve.HealthResponse) []string {
	var out []string
	for _, st := range h.SLO {
		if st.Healthy {
			continue
		}
		out = append(out, st.Model)
		for public, target := range h.Aliases {
			if target == st.Model {
				out = append(out, public)
			}
		}
	}
	sort.Strings(out)
	return out
}

// HealthCheckLoop probes every worker each HealthInterval and expires the
// ones whose heartbeat went stale, until ctx is done.
func (rt *Router) HealthCheckLoop(ctx context.Context) {
	t := time.NewTicker(rt.opts.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rt.CheckWorkers()
		}
	}
}

// CheckWorkers runs one probe pass over the fleet (the loop body, exported
// for deterministic tests and the smoke harness).
func (rt *Router) CheckWorkers() {
	rt.mu.RLock()
	keys := make([]string, 0, len(rt.workers))
	for k := range rt.workers {
		keys = append(keys, k)
	}
	rt.mu.RUnlock()
	for _, k := range keys {
		rt.probe(k)
	}
	cutoff := rt.now().Add(-rt.opts.HeartbeatTimeout)
	rt.mu.Lock()
	for _, w := range rt.workers {
		if w.lastBeat.Before(cutoff) {
			w.info.Healthy = false
		}
	}
	rt.mu.Unlock()
	rt.updateGauges()
}

// routable counts the workers new requests can go to.
func routable(ws []WorkerInfo) int {
	n := 0
	for _, wi := range ws {
		if wi.Healthy && !wi.Draining {
			n++
		}
	}
	return n
}

func (rt *Router) updateGauges() {
	ws := rt.Workers()
	rt.registeredG.Set(float64(len(ws)))
	rt.healthyG.Set(float64(routable(ws)))
}

func (rt *Router) markUnhealthy(key string) {
	rt.mu.Lock()
	if w, ok := rt.workers[key]; ok {
		w.info.Healthy = false
	}
	rt.mu.Unlock()
	rt.updateGauges()
}
