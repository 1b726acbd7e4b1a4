package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/runtime"
	"repro/internal/serve"
)

// The registry's per-model state machine:
//
//	Deploy(v2):  v2 —register→ ACTIVE (alias cutover)
//	             v1 ACTIVE → STANDBY         (pool stays warm for rollback)
//	             v0 STANDBY —drain→ RETIRED  (workers finish in-flight, exit)
//	Rollback:    STANDBY ⇄ ACTIVE            (pure alias pointer swap)
//	Remove:      ACTIVE, STANDBY —drain→ RETIRED; alias deleted
//
// The serving invariants: the public alias always targets a live pool (the
// cutover is one map write under the server mutex), a draining pool answers
// everything it admitted, and because every response is version-stamped by
// the worker that executed it, no response can mix versions across a cutover.

// States of one model version in the registry.
const (
	StateActive  = "active"  // the alias target: new requests route here
	StateStandby = "standby" // previous version, warm, rollback target
	StateRetired = "retired" // drained; kept for history only
)

// VersionInfo describes one deployed version of a model.
type VersionInfo struct {
	Model    string    `json:"model"`
	Version  string    `json:"version"`
	Endpoint string    `json:"endpoint"` // serve endpoint name (model@version)
	State    string    `json:"state"`
	CacheKey string    `json:"cache_key,omitempty"`
	Deployed time.Time `json:"deployed"`
}

type modelState struct {
	active  *VersionInfo
	standby *VersionInfo
	retired []*VersionInfo
}

// Registry manages versioned model lifecycles on one live serve.Server.
type Registry struct {
	srv *serve.Server

	mu     sync.Mutex
	models map[string]*modelState
}

// New wraps a serve.Server with a versioned registry.
func New(srv *serve.Server) *Registry {
	return &Registry{srv: srv, models: map[string]*modelState{}}
}

// EndpointName is the serve-endpoint naming scheme for a model version.
func EndpointName(model, version string) string { return model + "@" + version }

// Deploy hot-loads version of model and atomically cuts public traffic over
// to it: the new pool is registered and warmed first, the alias swap is one
// pointer write, the previous active version stays warm in standby for
// rollback, and the version it displaces from standby drains without
// dropping in-flight requests. cacheKey is recorded for introspection (use
// "" when the lib was built outside the artifact cache).
func (r *Registry) Deploy(model, version string, lib *runtime.Lib, opts serve.ModelOptions, cacheKey string) error {
	if model == "" || version == "" {
		return errors.New("registry: empty model or version")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.models[model]
	if m == nil {
		m = &modelState{}
		r.models[model] = m
	}
	ep := EndpointName(model, version)
	opts.Version = version
	if err := r.srv.Register(ep, lib, opts); err != nil {
		return fmt.Errorf("registry: deploy %s: %w", ep, err)
	}
	if err := r.srv.SetAlias(model, ep); err != nil {
		// Roll the half-deploy back so the registry and server stay agreed.
		_ = r.srv.DrainEndpoint(ep)
		return fmt.Errorf("registry: cutover to %s: %w", ep, err)
	}
	displaced := m.standby
	m.standby = m.active
	if m.standby != nil {
		m.standby.State = StateStandby
	}
	m.active = &VersionInfo{
		Model: model, Version: version, Endpoint: ep,
		State: StateActive, CacheKey: cacheKey, Deployed: time.Now(),
	}
	if displaced != nil {
		if err := r.srv.DrainEndpoint(displaced.Endpoint); err != nil {
			return fmt.Errorf("registry: retiring %s: %w", displaced.Endpoint, err)
		}
		displaced.State = StateRetired
		m.retired = append(m.retired, displaced)
	}
	return nil
}

// Rollback swaps the model's active and standby versions — a pure alias
// pointer swap; both pools are warm, so the cutover is instant in either
// direction. It fails when no standby version exists.
func (r *Registry) Rollback(model string) (restored string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.models[model]
	if m == nil || m.active == nil {
		return "", fmt.Errorf("registry: model %q not deployed", model)
	}
	if m.standby == nil {
		return "", fmt.Errorf("registry: model %q has no standby version to roll back to", model)
	}
	if err := r.srv.SetAlias(model, m.standby.Endpoint); err != nil {
		return "", fmt.Errorf("registry: rollback %s: %w", model, err)
	}
	m.active, m.standby = m.standby, m.active
	m.active.State = StateActive
	m.standby.State = StateStandby
	return m.active.Version, nil
}

// Remove unloads the model entirely: the alias is deleted (new requests get
// ErrUnknownModel), then the active and standby pools drain — every admitted
// request is still answered.
func (r *Registry) Remove(model string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.models[model]
	if m == nil || m.active == nil {
		return fmt.Errorf("registry: model %q not deployed", model)
	}
	r.srv.RemoveAlias(model)
	for _, v := range []*VersionInfo{m.active, m.standby} {
		if v == nil {
			continue
		}
		if err := r.srv.DrainEndpoint(v.Endpoint); err != nil {
			return fmt.Errorf("registry: removing %s: %w", v.Endpoint, err)
		}
		v.State = StateRetired
		m.retired = append(m.retired, v)
	}
	m.active, m.standby = nil, nil
	return nil
}

// Active returns the currently serving version of a model.
func (r *Registry) Active(model string) (VersionInfo, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.models[model]
	if m == nil || m.active == nil {
		return VersionInfo{}, false
	}
	return *m.active, true
}

// Status snapshots every known version, sorted by model then state
// (active, standby, then retired in deployment order).
func (r *Registry) Status() []VersionInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.models))
	for n := range r.models {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []VersionInfo
	for _, n := range names {
		m := r.models[n]
		if m.active != nil {
			out = append(out, *m.active)
		}
		if m.standby != nil {
			out = append(out, *m.standby)
		}
		for _, v := range m.retired {
			out = append(out, *v)
		}
	}
	return out
}

// ------------------------------------------------------------------- admin

// LoadFunc materializes a deployable library for (model, version) — npserve
// wires the zoo build through the artifact cache here. The returned cacheKey
// is recorded on the VersionInfo.
type LoadFunc func(model, version string) (lib *runtime.Lib, opts serve.ModelOptions, cacheKey string, err error)

// AdminRequest is the body of every POST /admin/* lifecycle call.
type AdminRequest struct {
	Model   string `json:"model"`
	Version string `json:"version,omitempty"`
}

// AdminHandler returns the model-lifecycle HTTP surface, mounted by npserve
// under /admin/:
//
//	POST /admin/deploy   {"model":"emotion","version":"v2"}  → hot-load + cutover
//	POST /admin/rollback {"model":"emotion"}                 → alias swap to standby
//	POST /admin/remove   {"model":"emotion"}                 → drain + unload
//	GET  /admin/registry                                     → version state dump
//
// load may be nil, which disables /admin/deploy (405) — rollback and remove
// operate on pools that are already resident.
func (r *Registry) AdminHandler(load LoadFunc) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/admin/registry", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"versions": r.Status()})
	})
	mux.HandleFunc("/admin/deploy", func(w http.ResponseWriter, req *http.Request) {
		ar, ok := adminBody(w, req)
		if !ok {
			return
		}
		if load == nil {
			writeJSON(w, http.StatusMethodNotAllowed, errJSON("deploy disabled: no model loader configured"))
			return
		}
		if ar.Version == "" {
			writeJSON(w, http.StatusBadRequest, errJSON("missing version"))
			return
		}
		lib, opts, key, err := load(ar.Model, ar.Version)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errJSON(err.Error()))
			return
		}
		if err := r.Deploy(ar.Model, ar.Version, lib, opts, key); err != nil {
			writeJSON(w, http.StatusConflict, errJSON(err.Error()))
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"model": ar.Model, "active": ar.Version, "cache_key": key})
	})
	mux.HandleFunc("/admin/rollback", func(w http.ResponseWriter, req *http.Request) {
		ar, ok := adminBody(w, req)
		if !ok {
			return
		}
		restored, err := r.Rollback(ar.Model)
		if err != nil {
			writeJSON(w, http.StatusConflict, errJSON(err.Error()))
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"model": ar.Model, "active": restored})
	})
	mux.HandleFunc("/admin/remove", func(w http.ResponseWriter, req *http.Request) {
		ar, ok := adminBody(w, req)
		if !ok {
			return
		}
		if err := r.Remove(ar.Model); err != nil {
			writeJSON(w, http.StatusConflict, errJSON(err.Error()))
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"model": ar.Model, "removed": true})
	})
	return mux
}

// maxAdminBody bounds an /admin/ request: a model name and a version.
const maxAdminBody = 1 << 20

func adminBody(w http.ResponseWriter, req *http.Request) (AdminRequest, bool) {
	if req.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errJSON("POST only"))
		return AdminRequest{}, false
	}
	var ar AdminRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxAdminBody)).Decode(&ar); err != nil {
		writeJSON(w, serve.BodyErrStatus(err), errJSON("bad request body: "+err.Error()))
		return AdminRequest{}, false
	}
	if ar.Model == "" {
		writeJSON(w, http.StatusBadRequest, errJSON("missing model"))
		return AdminRequest{}, false
	}
	return ar, true
}

func errJSON(msg string) map[string]string { return map[string]string{"error": msg} }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
