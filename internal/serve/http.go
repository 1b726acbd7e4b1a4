package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	goruntime "runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	"repro/internal/app"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/relay"
	"repro/internal/soc"
	"repro/internal/tensor"
	"repro/internal/video"
)

// The JSON API surface:
//
//	POST /v1/infer    {"model":"emotion","seed":7}                → outputs
//	POST /v1/infer    {"model":"emotion","inputs":{"x":[...]}}    → outputs
//	POST /v1/showcase {"frames":2,"faces":1,"objects":1,"seed":9} → per-frame verdicts
//	GET  /healthz                                                 → liveness + drain state
//	GET  /statsz                                                  → per-model counters, device busy time
//	GET  /metricsz                                                → Prometheus text exposition
//	GET  /tracez                                                  → Chrome trace JSON (Perfetto-loadable)

// InferRequest is the /v1/infer body. Exactly one of Inputs or Seed drives
// the input tensors: Inputs binds explicit per-input data (row-major real
// values, quantized with the model's declared input parameters where
// needed); otherwise the input is synthesized deterministically from Seed.
type InferRequest struct {
	Model     string               `json:"model"`
	Seed      uint64               `json:"seed,omitempty"`
	Inputs    map[string][]float64 `json:"inputs,omitempty"`
	TimeoutMs int                  `json:"timeout_ms,omitempty"`
}

// TensorJSON is one tensor on the wire.
type TensorJSON struct {
	Shape []int     `json:"shape"`
	DType string    `json:"dtype"`
	Data  []float64 `json:"data"`
}

// InferResponse is the /v1/infer reply. TraceID duplicates the response's
// X-NP-Trace-Context trace ID in the body so programmatic clients can link
// straight to GET /tracez?id=<TraceID>.
type InferResponse struct {
	Model     string       `json:"model"`
	Version   string       `json:"version,omitempty"`
	Outputs   []TensorJSON `json:"outputs"`
	BatchSize int          `json:"batch_size"`
	QueueMs   float64      `json:"queue_ms"`
	WallMs    float64      `json:"wall_ms"`
	SimMs     float64      `json:"sim_ms"`
	TraceID   string       `json:"trace_id,omitempty"`
}

// Mount attaches an auxiliary handler (e.g. a registry's /admin/ surface)
// under the given mux pattern; it must be called before Handler.
func (s *Server) Mount(pattern string, h http.Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.aux[pattern] = h
}

// Handler returns the HTTP mux serving the JSON API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/infer", s.handleInfer)
	mux.HandleFunc("/v1/showcase", s.handleShowcase)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/statsz", s.handleStats)
	mux.HandleFunc("/metricsz", s.handleMetrics)
	mux.HandleFunc("/tracez", s.handleTrace)
	mux.HandleFunc("/debugz/requests", s.handleDebugRequests)
	s.mu.RLock()
	for pattern, h := range s.aux {
		mux.Handle(pattern, h)
	}
	s.mu.RUnlock()
	return mux
}

// httpStatus maps serving errors onto status codes: 429 for overload, 503
// while draining, 404 for unknown models, 504 for deadlines that expired in
// queue, 400 for bad bindings, 500 otherwise.
func httpStatus(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownModel):
		return http.StatusNotFound
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

func writeErr(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// DrainRetryAfterSeconds is the Retry-After value stamped on every 503 drain
// rejection: a draining worker is expected to be replaced (or the deploy to
// cut over) on the order of a second, so routers back off briefly and retry
// elsewhere instead of hammering a dying pool.
const DrainRetryAfterSeconds = 1

// writeServeErr maps a serving error to its status code, attaching the
// Retry-After backoff hint to drain rejections so client and router retries
// are principled rather than immediate.
func writeServeErr(w http.ResponseWriter, err error) {
	code := httpStatus(err)
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(DrainRetryAfterSeconds))
	}
	writeErr(w, code, err)
}

// MaxInferBody bounds what the edge reads from one request. The largest
// thing a legitimate client sends is the biggest zoo input as a JSON float
// array: yolov3's 1×416×416×3 = 519 168 values at up to 25 bytes each, 13 MB.
// The fleet router applies the same bound to what it forwards.
const MaxInferBody = 16 << 20

// BodyErrStatus is the status to answer a request whose body could not be
// read or decoded under an http.MaxBytesReader: 413 when the cap was hit,
// 400 otherwise.
func BodyErrStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// decodeBody decodes the capped JSON body into v, answering the request
// itself when it cannot.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxInferBody)).Decode(v)
	if err != nil {
		writeErr(w, BodyErrStatus(err), fmt.Errorf("bad request body: %w", err))
	}
	return err == nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	tc := obs.AdoptTrace(w, r)
	traced := obs.A(obs.TraceArg, tc.TraceID)
	start := time.Now()
	q := getInferBuf()
	defer putInferBuf(q)
	err := q.readBody(w, r)
	if err == nil {
		err = q.decode(q.b)
	}
	if err != nil {
		writeErr(w, BodyErrStatus(err), fmt.Errorf("bad request body: %w", err))
		return
	}
	s.mu.RLock()
	e, ok := s.resolve(q.model)
	s.mu.RUnlock()
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("%w: %q", ErrUnknownModel, q.model))
		return
	}
	inputs, err := e.bindInputs(q)
	s.httpTrack.Emit(e.decodeSpan, "serve", start, time.Since(start), traced)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ctx := obs.WithTrace(r.Context(), tc)
	if q.timeoutMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(q.timeoutMs)*time.Millisecond)
		defer cancel()
	}
	res, err := s.Submit(ctx, q.model, inputs)
	if err != nil {
		writeServeErr(w, err)
		return
	}
	// The request is bound and answered: its body bytes are dead, and the
	// reply is built where they were. Encoding finishes before the header
	// goes out, so a value with no JSON form is an error status, not a
	// 200 with half a body.
	start = time.Now()
	q.b, err = appendInferResponse(q.b[:0], q.model, res, tc.TraceID)
	s.httpTrack.Emit(e.encodeSpan, "serve", start, time.Since(start), traced)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(q.b)
}

// bindInputs materializes the request's input binding: explicit data when
// given, a deterministic synthetic input otherwise.
func (e *endpoint) bindInputs(q *inferBuf) (map[string]*tensor.Tensor, error) {
	main := e.lib.Module.Main()
	out := make(map[string]*tensor.Tensor, len(main.Params))
	if len(q.inputs) == 0 {
		if len(main.Params) != 1 {
			return nil, fmt.Errorf("serve: model %q has %d inputs; seed synthesis needs exactly 1 (bind inputs explicitly)",
				e.name, len(main.Params))
		}
		out[main.Params[0].Name] = models.RandomInput(e.lib.Module, q.seed)
		return out, nil
	}
	for _, p := range main.Params {
		data, ok := q.input(p.Name)
		if !ok {
			return nil, fmt.Errorf("serve: model %q: input %q missing", e.name, p.Name)
		}
		tt, ok := p.TypeAnnotation.(*relay.TensorType)
		if !ok {
			return nil, fmt.Errorf("serve: model %q: input %q has no tensor type", e.name, p.Name)
		}
		t, err := tensorFromData(data, tt)
		if err != nil {
			return nil, fmt.Errorf("serve: model %q input %q: %w", e.name, p.Name, err)
		}
		out[p.Name] = t
	}
	return out, nil
}

// tensorFromData builds a tensor of the declared input type from row-major
// real values, each narrowed to float32 — the wire carries doubles, and
// parsing them at 32 bits would round twice — then quantized through the
// declared parameters for integer inputs.
func tensorFromData(data []float64, tt *relay.TensorType) (*tensor.Tensor, error) {
	if len(data) != tt.Shape.Elems() {
		return nil, fmt.Errorf("want %d elements for shape %s, got %d", tt.Shape.Elems(), tt.Shape, len(data))
	}
	f := tensor.New(tensor.Float32, tt.Shape)
	dst := f.F32()
	for i, v := range data {
		dst[i] = float32(v)
	}
	if tt.DType == tensor.Float32 {
		return f, nil
	}
	if !tt.DType.IsQuantized() || tt.Quant == nil {
		return nil, fmt.Errorf("cannot bind explicit data to %s input without quant params", tt.DType)
	}
	return f.QuantizeTo(tt.DType, *tt.Quant), nil
}

// ---------------------------------------------------------------- showcase

// showcaseEndpoint wraps the three-model §4 application behind the API. An
// app.Showcase is single-threaded state, so access is serialized by the
// server's showMu — concurrency belongs to the per-model /v1/infer pools;
// /v1/showcase is the demo surface.
type showcaseEndpoint struct {
	sc *app.Showcase
}

// RegisterShowcase builds the three showcase models and mounts /v1/showcase.
func (s *Server) RegisterShowcase(cfg app.Config) error {
	sc, err := app.New(cfg)
	if err != nil {
		return err
	}
	s.showMu.Lock()
	s.showcase = &showcaseEndpoint{sc: sc}
	s.showMu.Unlock()
	return nil
}

// ShowcaseRequest is the /v1/showcase body (zero values get defaults).
type ShowcaseRequest struct {
	Frames  int    `json:"frames"`
	Faces   int    `json:"faces"`
	Objects int    `json:"objects"`
	Width   int    `json:"width"`
	Height  int    `json:"height"`
	Seed    uint64 `json:"seed"`
}

// ShowcaseFace is one face verdict on the wire.
type ShowcaseFace struct {
	X          int     `json:"x"`
	Y          int     `json:"y"`
	W          int     `json:"w"`
	H          int     `json:"h"`
	SpoofScore float64 `json:"spoof_score"`
	Real       bool    `json:"real"`
	Emotion    string  `json:"emotion,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
}

// ShowcaseFrame is one frame's result on the wire.
type ShowcaseFrame struct {
	Frame    int            `json:"frame"`
	Objects  int            `json:"objects"`
	Faces    []ShowcaseFace `json:"faces"`
	DetectMs float64        `json:"detect_sim_ms"`
	SpoofMs  float64        `json:"spoof_sim_ms"`
	EmoMs    float64        `json:"emotion_sim_ms"`
}

// ShowcaseResponse is the /v1/showcase reply.
type ShowcaseResponse struct {
	Frames     []ShowcaseFrame `json:"frames"`
	TotalSimMs float64         `json:"total_sim_ms"`
}

func (s *Server) handleShowcase(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	if s.Draining() {
		writeServeErr(w, ErrDraining)
		return
	}
	s.showMu.Lock()
	ep := s.showcase
	s.showMu.Unlock()
	if ep == nil {
		writeErr(w, http.StatusNotImplemented, errors.New("showcase endpoint not registered"))
		return
	}
	var req ShowcaseRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Frames <= 0 {
		req.Frames = 1
	}
	if req.Frames > 64 {
		writeErr(w, http.StatusBadRequest, errors.New("frames > 64"))
		return
	}
	if req.Width <= 0 {
		req.Width = 160
	}
	if req.Height <= 0 {
		req.Height = 120
	}
	if req.Faces < 0 || req.Objects < 0 {
		writeErr(w, http.StatusBadRequest, errors.New("negative faces/objects"))
		return
	}
	if req.Faces == 0 {
		req.Faces = 2
	}
	if req.Objects == 0 {
		req.Objects = 2
	}
	src, err := video.NewSource(req.Width, req.Height, req.Faces, req.Objects, req.Seed)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var resp ShowcaseResponse
	var total soc.Seconds
	s.showMu.Lock()
	defer s.showMu.Unlock()
	for i := 0; i < req.Frames; i++ {
		res, err := ep.sc.ProcessFrame(src.Next())
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		fr := ShowcaseFrame{
			Frame:    res.Frame,
			Objects:  len(res.Objects),
			DetectMs: res.Timing.Detect.Ms(),
			SpoofMs:  res.Timing.AntiSpoof.Ms(),
			EmoMs:    res.Timing.Emotion.Ms(),
		}
		for _, f := range res.Faces {
			fr.Faces = append(fr.Faces, ShowcaseFace{
				X: f.Box.X, Y: f.Box.Y, W: f.Box.W, H: f.Box.H,
				SpoofScore: f.SpoofScore, Real: f.Real,
				Emotion: f.Emotion, Confidence: f.Confidence,
			})
		}
		total += res.Timing.Total()
		resp.Frames = append(resp.Frames, fr)
	}
	resp.TotalSimMs = total.Ms()
	writeJSON(w, resp)
}

// ------------------------------------------------------------------ health

// BuildInfo identifies the running binary on /healthz.
type BuildInfo struct {
	GoVersion string `json:"go_version"`
	Path      string `json:"path,omitempty"`
	Revision  string `json:"vcs_revision,omitempty"`
}

// EndpointHealth is one endpoint's row in the /healthz report. The fleet
// router's health checker consumes Name/Version/Draining to know which model
// revisions a worker is actually serving.
type EndpointHealth struct {
	Name     string   `json:"name"`
	Version  string   `json:"version,omitempty"`
	Draining bool     `json:"draining"`
	Pool     int      `json:"pool"`
	Devices  []string `json:"devices"`
}

// HealthResponse is the /healthz reply. The JSON keys are pinned by
// TestHealthzKeysPinned — the fleet router depends on them.
type HealthResponse struct {
	Status    string            `json:"status"`
	Draining  bool              `json:"draining"`
	Models    []string          `json:"models"`
	Build     BuildInfo         `json:"build"`
	Endpoints []EndpointHealth  `json:"endpoints"`
	Aliases   map[string]string `json:"aliases,omitempty"`
	// SLO reports each configured objective's rolling-window state. The fleet
	// router reads it to penalize workers that are burning error budget.
	SLO []obs.SLOStatus `json:"slo,omitempty"`
}

// Health assembles the /healthz report: liveness, drain state, every
// routable model name, build identity, and per-endpoint version/drain rows.
func (s *Server) Health() HealthResponse {
	resp := HealthResponse{
		Status: "ok",
		Build:  BuildInfo{GoVersion: goruntime.Version()},
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		resp.Build.Path = bi.Main.Path
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				resp.Build.Revision = kv.Value
			}
		}
	}
	resp.Models = s.Models()
	resp.Aliases = s.Aliases()
	resp.SLO = s.slo.StatusAll()
	if len(resp.Aliases) == 0 {
		resp.Aliases = nil
	}
	s.mu.RLock()
	resp.Draining = s.draining
	names := make([]string, 0, len(s.endpoints))
	for n := range s.endpoints {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		e := s.endpoints[n]
		eh := EndpointHealth{
			Name:     n,
			Version:  e.opts.Version,
			Draining: e.draining,
			Pool:     e.opts.Pool,
		}
		for _, d := range e.opts.Devices {
			eh.Devices = append(eh.Devices, d.String())
		}
		resp.Endpoints = append(resp.Endpoints, eh)
	}
	s.mu.RUnlock()
	return resp
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Health())
}

// StatsResponse is the /statsz reply.
type StatsResponse struct {
	UptimeMs float64            `json:"uptime_ms"`
	Draining bool               `json:"draining"`
	Models   []ModelStats       `json:"models"`
	DeviceMs map[string]float64 `json:"device_busy_sim_ms"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		UptimeMs: float64(time.Since(s.start)) / float64(time.Millisecond),
		Draining: s.Draining(),
		Models:   s.Stats(),
		DeviceMs: map[string]float64{},
	}
	for _, k := range soc.AllDeviceKinds() {
		resp.DeviceMs[k.String()] = s.timeline.BusyTime(k).Ms()
	}
	writeJSON(w, resp)
}

// handleMetrics renders the server's instrument registry in Prometheus text
// exposition format. Point-in-time gauges (draining, uptime, per-device
// simulated busy time) are refreshed at scrape time; counters and histograms
// accrue continuously on the serving path.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.Gauge("serve_uptime_seconds", "Wall-clock time since server start.", obs.L()).
		Set(time.Since(s.start).Seconds())
	drain := 0.0
	if s.Draining() {
		drain = 1
	}
	s.metrics.Gauge("serve_draining", "1 while graceful shutdown is in progress.", obs.L()).
		Set(drain)
	for _, k := range soc.AllDeviceKinds() {
		s.metrics.Gauge("serve_device_busy_sim_seconds",
			"Simulated exclusive busy time per device.", obs.L("device", k.String())).
			Set(float64(s.timeline.BusyTime(k)))
	}
	s.slo.ExportMetrics(s.metrics)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w)
}

// handleTrace exports the tracer's span rings as Chrome trace_event JSON —
// load the response in Perfetto (ui.perfetto.dev) or chrome://tracing to see
// each worker's coalesce / lock-wait / execute phases on its own row.
// ?id=<32 hex trace id> narrows the export to the spans of one distributed
// trace; the export always carries the tracer epoch so a fleet router can
// stitch multiple workers' exports onto one timeline (obs.StitchChromeTraces).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	spans, names := s.tracer.Snapshot()
	if id := r.URL.Query().Get("id"); id != "" {
		if err := obs.ValidTraceID(id); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		spans = obs.FilterByTraceID(spans, id)
	}
	w.Header().Set("Content-Type", "application/json")
	if err := obs.WriteChromeTraceEpoch(w, spans, names, s.tracer.Epoch()); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
	}
}

// DebugRequestsResponse is the /debugz/requests reply: the flight recorder's
// two lanes plus its control state. Recent is oldest-first admission order;
// Slow is worst-first by total latency.
type DebugRequestsResponse struct {
	Enabled         bool               `json:"enabled"`
	SlowThresholdMs float64            `json:"slow_threshold_ms"`
	Dropped         uint64             `json:"dropped"`
	Recent          []obs.FlightRecord `json:"recent"`
	Slow            []obs.FlightRecord `json:"slow"`
}

// handleDebugRequests dumps the per-request flight recorder. Each record's
// trace_id links to GET /tracez?id=<trace_id> for the span-level view.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	f := s.flight.Load()
	writeJSON(w, DebugRequestsResponse{
		Enabled:         f.Enabled(),
		SlowThresholdMs: f.SlowThresholdMs(),
		Dropped:         f.Dropped(),
		Recent:          f.Snapshot(),
		Slow:            f.Slow(),
	})
}
