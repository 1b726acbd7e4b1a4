package serve

import (
	"time"

	"repro/internal/obs"
	"repro/internal/soc"
)

// ModelStats is a point-in-time snapshot of one endpoint's counters. All
// fields present before the observability layer keep their JSON names; the
// queue-wait/execution split (QueueWaitMs, ExecMs, QueueWait, Exec) is
// strictly additive.
type ModelStats struct {
	Model string `json:"model"`
	// Version is the endpoint's model revision (empty when unversioned).
	Version string `json:"version,omitempty"`
	// Admitted counts requests accepted into the queue; Rejected counts
	// ErrOverloaded refusals; Expired counts requests whose deadline passed
	// before execution; Failed counts execution errors.
	Admitted  uint64 `json:"admitted"`
	Completed uint64 `json:"completed"`
	Rejected  uint64 `json:"rejected"`
	Expired   uint64 `json:"expired"`
	Failed    uint64 `json:"failed"`
	// Batches is how many device reservations served the completed
	// requests; MeanBatch = Completed/Batches; MaxBatch is the largest
	// coalesced batch observed.
	Batches   uint64  `json:"batches"`
	MeanBatch float64 `json:"mean_batch"`
	MaxBatch  int     `json:"max_batch"`
	// SimMs is total simulated device time charged; Latency summarizes
	// end-to-end wall-clock latencies (queue + execution).
	SimMs   float64        `json:"sim_ms"`
	Latency LatencySummary `json:"latency"`
	// QueueWaitMs and ExecMs split the mean end-to-end latency into its
	// queued and executing parts; QueueWait and Exec carry the full
	// distributions.
	QueueWaitMs float64        `json:"queue_wait_ms"`
	ExecMs      float64        `json:"exec_ms"`
	QueueWait   LatencySummary `json:"queue_wait"`
	Exec        LatencySummary `json:"exec"`
}

// LatencySummary reports a latency distribution in milliseconds. Count, mean,
// and max are exact; the quantiles are interpolated within the fixed
// exponential histogram buckets backing /metricsz.
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// latencyBuckets covers 100µs .. ~52s in powers of two — the exponential grid
// every serve latency histogram shares.
func latencyBuckets() []float64 { return obs.ExpBuckets(100e-6, 2, 20) }

// statsCollector accumulates one endpoint's counters on the server's metrics
// registry: the same instruments back both the /statsz JSON snapshot and the
// /metricsz Prometheus exposition. All methods are goroutine-safe (the
// instruments are lock-free).
type statsCollector struct {
	admit    *obs.Counter
	complete *obs.Counter
	reject   *obs.Counter
	expire   *obs.Counter
	fail     *obs.Counter
	batches  *obs.Counter
	sim      *obs.Counter

	lat       *obs.Histogram
	queueWait *obs.Histogram
	exec      *obs.Histogram
	batchSize *obs.Histogram
}

func newStatsCollector(reg *obs.Registry, model string) *statsCollector {
	outcome := func(o string) *obs.Counter {
		return reg.Counter("serve_requests_total",
			"Requests by model and admission outcome.",
			obs.L("model", model, "outcome", o))
	}
	lm := obs.L("model", model)
	return &statsCollector{
		admit:    outcome("admitted"),
		complete: outcome("completed"),
		reject:   outcome("rejected"),
		expire:   outcome("expired"),
		fail:     outcome("failed"),
		batches: reg.Counter("serve_batches_total",
			"Device reservations (micro-batches) executed.", lm),
		sim: reg.Counter("serve_sim_seconds_total",
			"Total simulated device time charged.", lm),
		lat: reg.Histogram("serve_latency_seconds",
			"End-to-end request latency (queue + execution).", lm, latencyBuckets()),
		queueWait: reg.Histogram("serve_queue_wait_seconds",
			"Time from admission to batch execution start.", lm, latencyBuckets()),
		exec: reg.Histogram("serve_exec_seconds",
			"Wall-clock execution time of one request's Run.", lm, latencyBuckets()),
		batchSize: reg.Histogram("serve_batch_size",
			"Coalesced micro-batch sizes.", lm, obs.ExpBuckets(1, 2, 8)),
	}
}

func (c *statsCollector) admitted() { c.admit.Inc() }
func (c *statsCollector) rejected() { c.reject.Inc() }
func (c *statsCollector) expired()  { c.expire.Inc() }
func (c *statsCollector) failed()   { c.fail.Inc() }

func (c *statsCollector) completed(latency, queueWait, exec time.Duration, sim soc.Seconds) {
	c.complete.Inc()
	c.sim.Add(float64(sim))
	c.lat.Observe(latency.Seconds())
	c.queueWait.Observe(queueWait.Seconds())
	c.exec.Observe(exec.Seconds())
}

func (c *statsCollector) batchDone(size int) {
	c.batches.Inc()
	c.batchSize.Observe(float64(size))
}

func (c *statsCollector) snapshot(model string) ModelStats {
	s := ModelStats{
		Model:     model,
		Admitted:  uint64(c.admit.Value()),
		Completed: uint64(c.complete.Value()),
		Rejected:  uint64(c.reject.Value()),
		Expired:   uint64(c.expire.Value()),
		Failed:    uint64(c.fail.Value()),
		Batches:   uint64(c.batches.Value()),
		MaxBatch:  int(c.batchSize.Max()),
		SimMs:     soc.Seconds(c.sim.Value()).Ms(),
		Latency:   summarize(c.lat),
		QueueWait: summarize(c.queueWait),
		Exec:      summarize(c.exec),
	}
	if b := c.batches.Value(); b > 0 {
		s.MeanBatch = c.complete.Value() / b
	}
	s.QueueWaitMs = s.QueueWait.MeanMs
	s.ExecMs = s.Exec.MeanMs
	return s
}

// summarize renders one latency histogram (seconds) as a millisecond summary.
func summarize(h *obs.Histogram) LatencySummary {
	const ms = 1e3
	out := LatencySummary{Count: h.Count()}
	if out.Count == 0 {
		return out
	}
	out.MeanMs = h.Mean() * ms
	out.P50Ms = h.Quantile(0.50) * ms
	out.P95Ms = h.Quantile(0.95) * ms
	out.P99Ms = h.Quantile(0.99) * ms
	out.MaxMs = h.Max() * ms
	return out
}
