package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/frontend/keras"
	"repro/internal/models"
	"repro/internal/parallel"
	"repro/internal/registry"
	"repro/internal/relay"
	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/tensor"
)

const (
	// clients is the closed-loop client count: the runner has 2 cores and the
	// servers share the process, so more would only measure the scheduler.
	clients = 2
	// seqLen is each client's generated request sequence; clients cycle it.
	seqLen = 960
	// Fixed warm-up request counts (part of set-up).
	warmHeavy = 60
	warmLight = 3000
	// Requests the layer replay sends, each at every depth.
	replayHeavy = 180
	replayLight = 600
	// profileRuns is how many profiled inferences per model feed the kernel
	// share rows.
	profileRuns = 5
	// hangLimitMs fails a request that takes longer. It catches a hang, not a
	// slow server: the runner's host stalls the guest for 50-300 ms a few
	// times per 100 000 requests (CALIBRATION.md), and an op failed by the
	// host would say nothing about the code. tail_ms carries the slow ops.
	hangLimitMs = 2000
)

// reference is the interpreter's answer to one request.
type reference struct {
	Outputs [][]float64
	SimMs   float64
}

// served is one model behind the endpoints, with its references.
type served struct {
	name  string
	mod   *relay.Module
	lib   *runtime.Lib
	input string
	// inputs[seed] and refs[seed] cover request seeds 1..poolSeeds; index 0
	// is the explicit-input request (tiny only).
	inputs [poolSeeds + 1]*tensor.Tensor
	refs   [poolSeeds + 1]*reference
}

// worker is one serve.Server behind a loopback listener.
type worker struct {
	key     string
	srv     *serve.Server
	handler http.Handler
	hs      *http.Server
	url     string
}

// serveWorkload is serve_heavy (heavy), serve_light, and fleet_light (fleet):
// closed-loop clients posting /v1/infer over loopback TCP to a worker or to
// the router in front of two.
type serveWorkload struct {
	heavy, fleet bool
	cfg          config

	models   map[string]*served
	names    []string
	workers  []*worker
	routerHS *http.Server
	stopLoop context.CancelFunc
	loopDone chan struct{}
	target   string
	client   *http.Client
	tmpDir   string

	seqs [clients][]request
	pos  [clients]int

	// registry timings from set-up (fleet only), ms.
	coldBuildMs, diskLoadMs, memHitMs float64
	// stats is the serving counters' change over the last untraced window.
	stats statsSnap
}

var byocOptions = runtime.BuildOptions{OptLevel: 3, UseNIR: true}

// buildTiny is the serve_light / fleet_light model, built through the keras
// frontend like any user model: small enough that inference is a minor share
// of a request.
func buildTiny() (*relay.Module, error) {
	s := keras.NewSequential("tiny", 0x7171).
		Input(32, 32, 3).
		MaxPooling2D(4, 4).
		Conv2D(8, 3, 1, "same", "relu").
		GlobalAveragePooling2D().
		Dense(10, "softmax")
	js, err := s.ToJSON()
	if err != nil {
		return nil, err
	}
	ws, err := s.Weights()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := ws.SaveWeights(&buf); err != nil {
		return nil, err
	}
	return core.Import(core.FrameworkKeras, js, buf.Bytes())
}

func tensorData(t *tensor.Tensor) []float64 {
	out := make([]float64, t.Elems())
	for i := range out {
		out[i] = t.GetF(i)
	}
	return out
}

// newServed builds a model's references with the interpreter executor.
func newServed(name string, mod *relay.Module, lib *runtime.Lib, explicit []float64) (*served, error) {
	m := &served{name: name, mod: mod, lib: lib, input: mod.Main().Params[0].Name}
	for seed := 0; seed <= poolSeeds; seed++ {
		if seed == 0 {
			if explicit == nil {
				continue
			}
			in := tensor.New(tensor.Float32, models.InputShape(mod))
			for i, v := range explicit {
				in.SetF(i, v)
			}
			m.inputs[0] = in
		} else {
			m.inputs[seed] = models.RandomInput(mod, uint64(seed))
		}
		outs, sim, err := runModule(lib, runtime.ExecutorInterp, m.inputs[seed])
		if err != nil {
			return nil, fmt.Errorf("reference for %s seed %d: %w", name, seed, err)
		}
		ref := &reference{SimMs: sim}
		for _, o := range outs {
			ref.Outputs = append(ref.Outputs, tensorData(o))
		}
		m.refs[seed] = ref
	}
	return m, nil
}

func (w *serveWorkload) setup(cfg config, rec *recorder) (err error) {
	w.cfg = cfg
	w.models = map[string]*served{}
	step := func(name string, fn func() error) {
		if err == nil {
			rec.timed(name, "setup", rowSetup, 0, func() { err = fn() })
		}
	}
	step("build + references", func() error { return w.buildModels() })
	step("start servers", func() error { return w.startServers(cfg) })
	if err != nil {
		return err
	}
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}}

	var explicit func(string) []byte
	if !w.heavy && !w.fleet {
		data := explicitInput()
		body := explicitBody("tiny", w.models["tiny"].input, data)
		explicit = func(string) []byte { return body }
	}
	for c := range w.seqs {
		w.seqs[c] = genRequests(newRNG(cfg.Seed*clients+uint64(c)), w.names, seqLen, explicit, c%2 == 1)
	}
	step("warm-up", func() error {
		n := cfg.warm(warmLight)
		if w.heavy {
			n = cfg.warm(warmHeavy)
		}
		warm := &window{}
		for i := 0; i < n; i++ {
			w.do(w.target, w.seqs[0][i%seqLen], warm)
		}
		if warm.Failed > 0 {
			return fmt.Errorf("%d of %d warm-up requests failed: %s", warm.Failed, n, strings.Join(warm.Errs, "; "))
		}
		return nil
	})
	return err
}

func (w *serveWorkload) buildModels() error {
	if w.heavy {
		for _, spec := range models.Showcase() {
			mod, err := spec.Build(models.SizeLite)
			if err != nil {
				return err
			}
			lib, err := runtime.Build(mod, byocOptions)
			if err != nil {
				return err
			}
			m, err := newServed(spec.Name, mod, lib, nil)
			if err != nil {
				return err
			}
			w.models[spec.Name] = m
			w.names = append(w.names, spec.Name)
		}
		return nil
	}
	mod, err := buildTiny()
	if err != nil {
		return err
	}
	lib, err := runtime.Build(mod, byocOptions)
	if err != nil {
		return err
	}
	m, err := newServed("tiny", mod, lib, explicitInput())
	if err != nil {
		return err
	}
	w.models["tiny"] = m
	w.names = []string{"tiny"}
	return nil
}

// modelOptions are npserve's defaults.
var modelOptions = serve.ModelOptions{Pool: 2, QueueDepth: 64, MaxBatch: 1}

func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln) // returns when teardown closes the server
	return hs, "http://" + ln.Addr().String(), nil
}

func (w *serveWorkload) startServers(cfg config) error {
	n := 1
	if w.fleet {
		n = 2
		if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
			return err
		}
		dir, err := os.MkdirTemp(cfg.WorkDir, "artifact-cache-")
		if err != nil {
			return err
		}
		w.tmpDir = dir
	}
	for i := 0; i < n; i++ {
		wk := &worker{key: fmt.Sprintf("bench-%d", i), srv: serve.NewServer()}
		w.workers = append(w.workers, wk)
		if w.fleet {
			if err := w.deployThroughRegistry(wk, i); err != nil {
				return err
			}
		} else {
			for _, name := range w.names {
				if err := wk.srv.Register(name, w.models[name].lib, modelOptions); err != nil {
					return err
				}
			}
		}
		wk.handler = wk.srv.Handler()
		var err error
		if wk.hs, wk.url, err = listen(wk.handler); err != nil {
			return err
		}
	}
	w.target = w.workers[0].url
	if !w.fleet {
		return nil
	}
	rt := fleet.NewRouter(fleet.Options{Client: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: clients},
	}})
	ctx, cancel := context.WithCancel(context.Background())
	w.stopLoop, w.loopDone = cancel, make(chan struct{})
	go func() {
		defer close(w.loopDone)
		rt.HealthCheckLoop(ctx) // as nprouter runs it; keeps the workers' leases fresh
	}()
	for _, wk := range w.workers {
		wk.srv.SetWorkerKey(wk.key)
		if err := rt.Register(wk.key, wk.url); err != nil {
			return err
		}
	}
	var err error
	w.routerHS, w.target, err = listen(rt.Handler())
	return err
}

// deployThroughRegistry loads tiny through the worker's own artifact cache
// over the shared directory and deploys it as tiny@v1: worker 0 misses and
// compiles, worker 1 loads worker 0's artifact from disk, and a repeat on
// worker 0 hits memory.
func (w *serveWorkload) deployThroughRegistry(wk *worker, i int) error {
	m := w.models["tiny"]
	cache, err := registry.NewCache(w.tmpDir)
	if err != nil {
		return err
	}
	cache.EnableMetrics(wk.srv.Metrics())
	key, err := registry.Key(m.mod, byocOptions, nil)
	if err != nil {
		return err
	}
	build := func() (*runtime.Lib, error) { return runtime.Build(m.mod, byocOptions) }
	start := time.Now()
	lib, hit, err := cache.GetOrBuild(key, nil, build)
	if err != nil {
		return err
	}
	took := ms(time.Since(start))
	if hit != (i > 0) {
		return fmt.Errorf("worker %d: artifact cache hit=%v, want %v", i, hit, i > 0)
	}
	if i == 0 {
		w.coldBuildMs = took
		start = time.Now()
		if _, hit, err = cache.GetOrBuild(key, nil, build); err != nil || !hit {
			return fmt.Errorf("worker 0: repeat load hit=%v err=%v, want a memory hit", hit, err)
		}
		w.memHitMs = ms(time.Since(start))
	} else {
		w.diskLoadMs = took
	}
	return registry.New(wk.srv).Deploy("tiny", "v1", lib, modelOptions, key)
}

// simMs is the mean simulated device time of a request over the fixed
// reference pool (every model, every pool seed and the explicit input), not
// over whatever a window happened to complete.
func (w *serveWorkload) simMs() (string, float64) {
	var sim []float64
	for _, name := range w.names {
		for _, ref := range w.models[name].refs {
			if ref != nil {
				sim = append(sim, ref.SimMs)
			}
		}
	}
	return "sim_ms_per_op", mean(sim)
}

func (w *serveWorkload) teardown() {
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.routerHS != nil {
		w.routerHS.Close()
	}
	if w.stopLoop != nil {
		w.stopLoop()
		<-w.loopDone
	}
	for _, wk := range w.workers {
		if wk.hs != nil {
			wk.hs.Close()
		}
		wk.srv.Drain()
	}
	if w.tmpDir != "" {
		os.RemoveAll(w.tmpDir)
	}
}

// do sends one request to base and verifies the reply; a verified op's
// latency is appended to win. It returns the latency in ms and the worker
// that served it (fleet only).
func (w *serveWorkload) do(base string, req request, win *window) (float64, string) {
	win.Attempted++
	start := time.Now()
	resp, err := w.client.Post(base+"/v1/infer", "application/json", bytes.NewReader(req.Body))
	if err != nil {
		win.fail(false, "%s: %v", req.Model, err)
		return 0, ""
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := ms(time.Since(start))
	if err != nil {
		win.fail(false, "%s: reading reply: %v", req.Model, err)
		return lat, ""
	}
	if resp.StatusCode != http.StatusOK {
		win.fail(false, "%s: HTTP %d: %s", req.Model, resp.StatusCode, bytes.TrimSpace(body))
		return lat, ""
	}
	if err := w.verify(req, body); err != nil {
		win.fail(true, "%s %s seed %d: %v", req.Model, req.Class, req.Seed, err)
		return lat, ""
	}
	if lat > hangLimitMs {
		win.fail(false, "%s: %.1f ms exceeds the %d ms limit", req.Model, lat, hangLimitMs)
		return lat, ""
	}
	win.LatMs = append(win.LatMs, lat)
	if win.ClassMs == nil {
		win.ClassMs = map[string][]float64{}
	}
	key := req.Model + ":" + req.Class
	win.ClassMs[key] = append(win.ClassMs[key], lat)
	return lat, resp.Header.Get(fleet.WorkerHeader)
}

// verify compares a reply with the interpreter's reference, bit for bit.
func (w *serveWorkload) verify(req request, body []byte) error {
	var got serve.InferResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("undecodable reply: %w", err)
	}
	return w.models[req.Model].refs[req.Seed].matches(got.Outputs, got.SimMs)
}

func (ref *reference) matches(outs []serve.TensorJSON, simMs float64) error {
	if len(outs) != len(ref.Outputs) {
		return fmt.Errorf("%d outputs, reference has %d", len(outs), len(ref.Outputs))
	}
	for i, o := range outs {
		if len(o.Data) != len(ref.Outputs[i]) {
			return fmt.Errorf("output %d has %d values, reference has %d", i, len(o.Data), len(ref.Outputs[i]))
		}
		for j, v := range o.Data {
			if math.Float64bits(v) != math.Float64bits(ref.Outputs[i][j]) {
				return fmt.Errorf("output %d[%d] = %v, interpreter reference %v", i, j, v, ref.Outputs[i][j])
			}
		}
	}
	if !sameSim(simMs, ref.SimMs) {
		return fmt.Errorf("sim_ms %v, reference %v", simMs, ref.SimMs)
	}
	return nil
}

func (w *serveWorkload) measure(d time.Duration, rec *recorder) *window {
	before := w.snapshot()
	wins := make([]*window, clients)
	var wg sync.WaitGroup
	mem := markMem()
	begin := time.Now()
	for c := 0; c < clients; c++ {
		wins[c] = &window{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(begin) < d {
				req := w.seqs[c][w.pos[c]%seqLen]
				w.pos[c]++
				start := time.Now()
				w.do(w.target, req, wins[c])
				rec.emit("request:"+req.Model+":"+req.Class, "", rowClient+c, w.pos[c], start, time.Since(start))
			}
		}(c)
	}
	wg.Wait()
	win := &window{Elapsed: time.Since(begin), Mem: mem.since()}
	for _, cw := range wins {
		win.merge(cw)
	}
	if rec == nil {
		w.stats = w.snapshot().minus(before)
	}
	return win
}

// statsSnap is the serving tier's own counters, summed over endpoints and
// workers, read through Server.Stats() and the router's /statsz.
type statsSnap struct {
	completed, batches, rejected, expired float64
	queueSumMs, execSumMs                 float64
	retried, failed                       float64
	perWorker                             []float64
}

func (w *serveWorkload) snapshot() statsSnap {
	s := statsSnap{perWorker: make([]float64, len(w.workers))}
	for i, wk := range w.workers {
		for _, st := range wk.srv.Stats() {
			s.completed += float64(st.Completed)
			s.batches += float64(st.Batches)
			s.rejected += float64(st.Rejected)
			s.expired += float64(st.Expired)
			s.queueSumMs += st.QueueWait.MeanMs * float64(st.QueueWait.Count)
			s.execSumMs += st.Exec.MeanMs * float64(st.Exec.Count)
			s.perWorker[i] += float64(st.Completed)
		}
	}
	if w.fleet {
		var fs fleet.FleetStats
		if resp, err := w.client.Get(w.target + "/statsz"); err == nil {
			if json.NewDecoder(resp.Body).Decode(&fs) == nil {
				s.retried, s.failed = fs.Retried, fs.Failed
			}
			resp.Body.Close()
		}
	}
	return s
}

func (s statsSnap) minus(o statsSnap) statsSnap {
	d := statsSnap{
		completed: s.completed - o.completed, batches: s.batches - o.batches,
		rejected: s.rejected - o.rejected, expired: s.expired - o.expired,
		queueSumMs: s.queueSumMs - o.queueSumMs, execSumMs: s.execSumMs - o.execSumMs,
		retried: s.retried - o.retried, failed: s.failed - o.failed,
	}
	for i := range s.perWorker {
		d.perWorker = append(d.perWorker, s.perWorker[i]-o.perWorker[i])
	}
	return d
}

// ------------------------------------------------------------ traced pass

// layers replays one seeded request sequence with a single client at
// increasing depth — GraphModule, Server.Submit, the handler on a recorder,
// loopback HTTP to the worker, and (fleet) through the router — and reports
// each layer as the median paired difference between adjacent depths.
func (w *serveWorkload) layers(rec *recorder, plain *window, out map[string]float64) error {
	n := w.cfg.warm(replayLight)
	if w.heavy {
		n = w.cfg.warm(replayHeavy)
	}
	seq := w.seqs[0]
	gms := map[string]*runtime.GraphModule{}
	for name, m := range w.models {
		gms[name] = runtime.NewGraphModule(m.lib)
	}
	workerByKey := map[string]*worker{}
	for _, wk := range w.workers {
		workerByKey[wk.key] = wk
	}
	var run, submit, handler, direct, routed []float64
	class := make([]string, 0, n)
	win := &window{}
	for i := 0; i < n; i++ {
		req := seq[i%seqLen]
		m := w.models[req.Model]
		wk := w.workers[0]
		var err error
		if w.fleet {
			// Deepest first, to learn which worker the router picks.
			start := time.Now()
			lat, key := w.do(w.target, req, win)
			rec.emit("fleet.route+worker", "", rowLayers, i, start, time.Since(start))
			routed = append(routed, lat)
			if wk = workerByKey[key]; wk == nil {
				return fmt.Errorf("replay request %d failed through the router: %s", i, strings.Join(win.Errs, "; "))
			}
		}
		in := m.inputs[req.Seed]
		gm := gms[req.Model]
		// An untimed run first: whichever depth touches a model first after
		// another model ran pays its cold caches, and that is not a layer.
		gm.SetInput(m.input, in)
		if err = gm.Run(); err != nil {
			return err
		}
		run = append(run, rec.timed("runtime.run", "", rowLayers, i, func() {
			gm.SetInput(m.input, in)
			if err = gm.Run(); err != nil {
				return
			}
			for o := 0; o < gm.NumOutputs() && err == nil; o++ {
				_, err = gm.OutputCopy(o)
			}
		}))
		if err != nil {
			return err
		}
		submit = append(submit, rec.timed("serve.Submit", "", rowLayers, i, func() {
			_, err = wk.srv.Submit(context.Background(), req.Model, map[string]*tensor.Tensor{m.input: in})
		}))
		if err != nil {
			return err
		}
		var rr *httptest.ResponseRecorder
		handler = append(handler, rec.timed("serve.Handler", "", rowLayers, i, func() {
			rr = httptest.NewRecorder()
			wk.handler.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(req.Body)))
		}))
		if rr.Code != http.StatusOK {
			return fmt.Errorf("replay request %d: handler answered %d: %s", i, rr.Code, rr.Body.String())
		}
		if err := w.verify(req, rr.Body.Bytes()); err != nil {
			return fmt.Errorf("replay request %d on the recorder: %w", i, err)
		}
		start := time.Now()
		lat, _ := w.do(wk.url, req, win)
		rec.emit("http round trip", "", rowLayers, i, start, time.Since(start))
		direct = append(direct, lat)
		class = append(class, req.Class)
	}
	if win.Failed > 0 {
		return fmt.Errorf("%d replay requests failed: %s", win.Failed, strings.Join(win.Errs, "; "))
	}

	out["runtime.run_ms"] = median(run)
	out["serve.submit_ms"] = pairedDiffMedian(run, submit)
	out["serve.codec_ms"] = pairedDiffMedian(submit, handler)
	for _, c := range []string{"seed", "explicit"} {
		var a, b []float64
		for i, ci := range class {
			if ci == c {
				a, b = append(a, submit[i]), append(b, handler[i])
			}
		}
		out["serve.codec_"+c+"_ms"] = pairedDiffMedian(a, b)
	}
	out["serve.http_ms"] = pairedDiffMedian(handler, direct)
	out["bench.roundtrip_ms"] = median(direct)
	if w.fleet {
		out["fleet.route_ms"] = pairedDiffMedian(direct, routed)
		out["bench.roundtrip_ms"] = median(routed)
	}
	deepest := direct
	if w.fleet {
		deepest = routed
	}
	out["bench.run_share"] = mean(run) / mean(deepest)

	s := w.stats
	if s.completed > 0 {
		out["serve.queue_wait_ms"] = s.queueSumMs / s.completed
		out["serve.exec_ms"] = s.execSumMs / s.completed
		var busiest float64
		for _, c := range s.perWorker {
			busiest = math.Max(busiest, c)
		}
		out["fleet.worker_share_max"] = busiest / s.completed
	}
	if s.batches > 0 {
		out["serve.mean_batch"] = s.completed / s.batches
	}
	if !w.heavy {
		out["serve.seed_p50_ms"] = median(plain.ClassMs["tiny:seed"])
		out["serve.explicit_p50_ms"] = median(plain.ClassMs["tiny:explicit"])
	}
	out["serve.rejected"] = s.rejected
	out["serve.expired"] = s.expired
	out["fleet.retried"] = s.retried
	out["fleet.failed"] = s.failed
	out["registry.cold_build_ms"] = w.coldBuildMs
	out["registry.disk_load_ms"] = w.diskLoadMs
	out["registry.mem_hit_ms"] = w.memHitMs
	out["parallel.max_workers"] = float64(parallel.MaxWorkers())

	if w.heavy {
		shares := map[string]float64{}
		for _, name := range w.names {
			m := w.models[name]
			if err := kernelShares(m.lib, m.input, m.inputs[1], 1/float64(len(w.names)), shares); err != nil {
				return err
			}
		}
		for k, v := range shares {
			out[k] = v
		}
		if err := standaloneKernels(rec, out); err != nil {
			return err
		}
	}
	return nil
}
