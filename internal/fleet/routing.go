package fleet

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// candidates ranks the healthy, non-draining workers serving model: workers
// whose SLO for the model is within budget come first (the SLO routing
// penalty), then by rendezvous (highest-random-weight) hash of (model, shard,
// worker key) — the same (model, shard) always prefers the same worker while
// every worker stays a deterministic fallback; adding or losing one worker
// only moves the shards that touched it. A burning worker is still routable
// (it sorts last, keeping it as fallback when it is the only candidate).
func (rt *Router) candidates(model string, shard uint64) []WorkerInfo {
	rt.mu.RLock()
	var cands []WorkerInfo
	for _, w := range rt.workers {
		if !w.info.Healthy || w.info.Draining {
			continue
		}
		for _, m := range w.info.Models {
			if m == model {
				cands = append(cands, w.info)
				break
			}
		}
	}
	rt.mu.RUnlock()
	sort.Slice(cands, func(i, j int) bool {
		bi, bj := sloBurns(cands[i], model), sloBurns(cands[j], model)
		if bi != bj {
			return !bi
		}
		hi, hj := rendezvous(model, shard, cands[i].Key), rendezvous(model, shard, cands[j].Key)
		if hi != hj {
			return hi > hj
		}
		return cands[i].Key < cands[j].Key
	})
	return cands
}

// sloBurns reports whether the worker's last probe flagged model as burning
// its error budget.
func sloBurns(wi WorkerInfo, model string) bool {
	for _, m := range wi.SLOBurning {
		if m == model {
			return true
		}
	}
	return false
}

func rendezvous(model string, shard uint64, key string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, model)
	h.Write([]byte{0})
	var b [8]byte
	for i := range b {
		b[i] = byte(shard >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte{0})
	io.WriteString(h, key)
	return h.Sum64()
}

// WorkerHeader names the response header carrying the key of the worker
// that served a routed request.
const WorkerHeader = "X-NP-Worker"

// handleInfer routes one inference: read the body's envelope to learn
// (model, seed), walk the rendezvous-ranked candidates, and proxy to the
// first worker that accepts. Transport failures mark the worker unhealthy
// and the request retries on the next candidate; 503 (draining) retries
// without the penalty. Responses stream back verbatim plus WorkerHeader.
func (rt *Router) handleInfer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, serve.MaxInferBody))
	if err != nil {
		writeErr(w, serve.BodyErrStatus(err), "reading body: "+err.Error())
		return
	}
	// Routing reads the envelope only; the inputs' numbers are parsed once,
	// by the worker the bytes are forwarded to.
	model, seed, err := serve.InferEnvelope(body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	// The router is the fleet's first edge: the adopted (or minted) trace
	// context is forwarded to the worker on the proxied request.
	tc := obs.AdoptTrace(w, r)

	cands := rt.candidates(model, seed)
	if len(cands) == 0 {
		rt.failedC.Inc()
		writeErr(w, http.StatusServiceUnavailable, fmt.Sprintf("no healthy worker serves model %q", model))
		return
	}
	routeStart := rt.now()
	for i, cand := range cands {
		if i > 0 {
			rt.retriedC.Inc()
		}
		preq, err := http.NewRequest(http.MethodPost, cand.URL+"/v1/infer", bytes.NewReader(body))
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err.Error())
			return
		}
		preq.Header.Set("Content-Type", "application/json")
		preq.Header.Set(obs.TraceHeader, tc.String())
		resp, err := rt.client.Do(preq)
		if err != nil {
			// Transport-dead worker: mark it down so routing skips it until a
			// probe or heartbeat revives it, and fail over.
			rt.markUnhealthy(cand.Key)
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			// Draining or overload-shedding worker: it is alive (it answered),
			// so no health penalty — just honor the hint and fail over.
			resp.Body.Close()
			continue
		}
		rt.routedCounter(cand.Key, model).Inc()
		rt.routed.Inc()
		rt.track.Emit("route:"+model, "fleet", routeStart, time.Since(routeStart),
			obs.A(obs.TraceArg, tc.TraceID), obs.A("worker", cand.Key), obs.A("attempt", i+1))
		w.Header().Set(WorkerHeader, cand.Key)
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
		resp.Body.Close()
		return
	}
	rt.failedC.Inc()
	rt.updateGauges()
	rt.track.Emit("route-failed:"+model, "fleet", routeStart, time.Since(routeStart),
		obs.A(obs.TraceArg, tc.TraceID), obs.A("candidates", len(cands)))
	w.Header().Set("Retry-After", strconv.Itoa(serve.DrainRetryAfterSeconds))
	writeErr(w, http.StatusServiceUnavailable, fmt.Sprintf("all %d workers for model %q failed or refused", len(cands), model))
}

func (rt *Router) routedCounter(workerKey, model string) *obs.Counter {
	return rt.metrics.Counter("np_fleet_routed_requests_total",
		"Inference requests routed to a worker, by worker key and model.",
		obs.L("worker", workerKey, "model", model))
}
