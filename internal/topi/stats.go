package topi

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Per-kernel observability: when a registry is installed, every launch
// (Launch.Run, Run) is counted and its wall time accumulated under the kernel's name.
// The hook is an atomic pointer so the disabled path costs one load on the
// kernel hot path and nothing else; serving (npserve /metricsz) enables it,
// batch tools leave it off.
var kernelObs atomic.Pointer[kernelMetrics]

// kernelMetrics pairs the installed registry with a per-kernel counter
// cache: label construction and registry lookup allocate, so the steady
// state resolves each kernel name once and after that touches only the two
// atomic counters.
type kernelMetrics struct {
	reg   *obs.Registry
	cache sync.Map // kernel name → *kernelCounters
}

type kernelCounters struct {
	launches *obs.Counter
	seconds  *obs.Counter
}

func (m *kernelMetrics) countersFor(name string) *kernelCounters {
	if c, ok := m.cache.Load(name); ok {
		return c.(*kernelCounters)
	}
	labels := obs.L("kernel", name)
	kc := &kernelCounters{
		launches: m.reg.Counter("np_kernel_launches_total",
			"Kernel dispatches by operator kernel name.", labels),
		seconds: m.reg.Counter("np_kernel_seconds_total",
			"Cumulative wall time spent inside operator kernels.", labels),
	}
	c, _ := m.cache.LoadOrStore(name, kc)
	return c.(*kernelCounters)
}

// EnableKernelMetrics routes per-kernel launch counts and cumulative wall
// time into r (Prometheus series np_kernel_launches_total and
// np_kernel_seconds_total, labeled by kernel name). Pass nil to disable.
func EnableKernelMetrics(r *obs.Registry) {
	if r == nil {
		kernelObs.Store(nil)
		return
	}
	kernelObs.Store(&kernelMetrics{reg: r})
}

// observeKernel records one kernel dispatch. Called with the start time so
// the instrumentation wraps the kernel body only, not counter resolution.
func observeKernel(m *kernelMetrics, name string, start time.Time) {
	dur := time.Since(start)
	kc := m.countersFor(name)
	kc.launches.Inc()
	kc.seconds.Add(dur.Seconds())
}
