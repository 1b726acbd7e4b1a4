package main

import (
	"os"
	goruntime "runtime"
	"strings"
	"sync"
	"time"
)

// envInfo is the machine block printed with every report.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func readEnv() envInfo {
	e := envInfo{
		NProc:      goruntime.NumCPU(),
		GOMAXPROCS: goruntime.GOMAXPROCS(0),
		GoVersion:  goruntime.Version(),
		CPUModel:   "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.IndexByte(line, ':'); i >= 0 {
					e.CPUModel = strings.TrimSpace(line[i+1:])
					break
				}
			}
		}
	}
	return e
}

// memDelta is what one measured window cost the process.
type memDelta struct {
	AllocBytes uint64
	GCPauseMs  float64
	GCCycles   uint32
}

type memMark struct{ ms goruntime.MemStats }

func markMem() *memMark {
	m := &memMark{}
	goruntime.ReadMemStats(&m.ms)
	return m
}

func (m *memMark) since() memDelta {
	var now goruntime.MemStats
	goruntime.ReadMemStats(&now)
	return memDelta{
		AllocBytes: now.TotalAlloc - m.ms.TotalAlloc,
		GCPauseMs:  float64(now.PauseTotalNs-m.ms.PauseTotalNs) / 1e6,
		GCCycles:   now.NumGC - m.ms.NumGC,
	}
}

// heapSampler records the peak HeapInuse, read once a second. It runs only
// in the traced pass: ReadMemStats stops the world, and end-to-end numbers
// must not pay for it.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.sample()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	if ms.HeapInuse > h.peak {
		h.peak = ms.HeapInuse
	}
}

// peakMB stops the sampler and returns the peak in MB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	h.wg.Wait()
	h.sample()
	return float64(h.peak) / (1 << 20)
}
