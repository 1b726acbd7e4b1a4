// Package registry is the model-lifecycle tier over the serving layer: a
// content-addressed compiled-artifact cache (compile once per (model,
// options) fleet-wide) and a versioned model registry with atomic
// hot-load, drain, and rollback on a live serve.Server — the production
// counterpart of the paper's §4.5 export/load deployment flow, where the
// compile host and the device fleet share artifacts instead of recompiling
// per process.
package registry

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/soc"
)

// Key derives the content address of the artifact Build(mod, opts) would
// produce: a hex SHA-256 over the canonical module encoding, the build-option
// fingerprint, and the tuning bytes (runtime.ArtifactKey). Every caller in
// the tree passes the tuning bytes as nil, benchmark/ included; dropping the
// parameter is a change to the benchmark. Equal keys ⇒ bitwise-equal
// artifacts, so the cache can hand one compiled Lib to every requester.
var Key = runtime.ArtifactKey

// CacheStats is a point-in-time snapshot of the cache counters, and — with
// the derived hit_rate beside it — the /debugz/cache wire document.
type CacheStats struct {
	// Hits counts loads served without compiling (memory or disk); Misses
	// counts loads that had to compile; Builds is the number of compilations
	// actually executed (single-flight: concurrent misses on one key share
	// one build, so Builds <= Misses).
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Builds uint64 `json:"builds"`
	// MemHits/DiskHits split Hits by layer.
	MemHits  uint64 `json:"mem_hits"`
	DiskHits uint64 `json:"disk_hits"`
	// BytesWritten/BytesRead are artifact bytes exported to / loaded from
	// the disk store.
	BytesWritten uint64 `json:"bytes_written"`
	BytesRead    uint64 `json:"bytes_read"`
	// MemEntries is the number of Libs resident in the memory layer.
	MemEntries int `json:"mem_entries"`
}

// HitRate is the fraction of loads served without compiling; 0 before any
// load (never NaN, which JSON cannot carry).
func (s CacheStats) HitRate() float64 {
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

// Cache is a two-layer content-addressed store of compiled libraries:
// an in-process map (shared *Lib — immutable once built, with the lowered
// ExecPlan cached inside it) over an optional local-disk artifact directory
// (ExportLibrary format, one file per key). Concurrent requests for the same
// key single-flight: one compiles, the rest wait and share the result.
type Cache struct {
	dir string

	mu       sync.Mutex
	mem      map[string]*runtime.Lib
	inflight map[string]*flight
	stats    CacheStats

	// Metric hooks (nil-safe): wired by EnableMetrics onto a serve registry
	// so cache behavior shows up on /metricsz fleet-wide.
	hitsM, missesM, buildsM *obs.Counter
	bytesWM, bytesRM        *obs.Counter
	memHitsM, diskHitsM     *obs.Counter
	entriesG                *obs.Gauge
}

type flight struct {
	done chan struct{}
	lib  *runtime.Lib
	err  error
}

// NewCache opens (creating if needed) a cache over the given artifact
// directory; dir == "" keeps the cache memory-only.
func NewCache(dir string) (*Cache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("registry: artifact cache dir: %w", err)
		}
	}
	return &Cache{dir: dir, mem: map[string]*runtime.Lib{}, inflight: map[string]*flight{}}, nil
}

// Dir returns the disk store path ("" for memory-only caches).
func (c *Cache) Dir() string { return c.dir }

// EnableMetrics registers the np_fleet_artifact_cache_* instrument family on
// reg and mirrors every subsequent cache event onto it.
func (c *Cache) EnableMetrics(reg *obs.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	outcome := func(o string) *obs.Counter {
		return reg.Counter("np_fleet_artifact_cache_requests_total",
			"Artifact cache loads by outcome (hit_memory, hit_disk, miss).",
			obs.L("outcome", o))
	}
	c.memHitsM = outcome("hit_memory")
	c.diskHitsM = outcome("hit_disk")
	c.missesM = outcome("miss")
	c.hitsM = reg.Counter("np_fleet_artifact_cache_hits_total",
		"Artifact cache loads served without compiling.", obs.L())
	c.buildsM = reg.Counter("np_fleet_artifact_cache_builds_total",
		"Compilations executed (single-flighted misses).", obs.L())
	c.bytesWM = reg.Counter("np_fleet_artifact_cache_bytes_written_total",
		"Artifact bytes exported to the disk store.", obs.L())
	c.bytesRM = reg.Counter("np_fleet_artifact_cache_bytes_read_total",
		"Artifact bytes loaded from the disk store.", obs.L())
	c.entriesG = reg.Gauge("np_fleet_artifact_cache_entries",
		"Libraries resident in the in-process cache layer.", obs.L())
	// Replay the state accumulated before metrics were enabled so the
	// exposition never under-reports (registration order is not load order).
	c.hitsM.Add(float64(c.stats.Hits))
	c.memHitsM.Add(float64(c.stats.MemHits))
	c.diskHitsM.Add(float64(c.stats.DiskHits))
	c.missesM.Add(float64(c.stats.Misses))
	c.buildsM.Add(float64(c.stats.Builds))
	c.bytesWM.Add(float64(c.stats.BytesWritten))
	c.bytesRM.Add(float64(c.stats.BytesRead))
	c.entriesG.Set(float64(len(c.mem)))
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.MemEntries = len(c.mem)
	return s
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".nplib")
}

// GetOrBuild returns the library for key, compiling it with build at most
// once per key fleet-wide: first the in-process layer, then the disk store
// (LoadLibrary against sc), and only then build() — whose result is exported
// to the disk store and shared with every concurrent requester of the same
// key. hit reports whether compilation was avoided.
func (c *Cache) GetOrBuild(key string, sc *soc.SoC, build func() (*runtime.Lib, error)) (lib *runtime.Lib, hit bool, err error) {
	for {
		c.mu.Lock()
		if lib, ok := c.mem[key]; ok {
			c.stats.Hits++
			c.stats.MemHits++
			inc(c.hitsM)
			inc(c.memHitsM)
			c.mu.Unlock()
			return lib, true, nil
		}
		if fl, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			<-fl.done
			if fl.err != nil {
				return nil, false, fl.err
			}
			// The winner populated the memory layer; loop to count a hit.
			continue
		}
		fl := &flight{done: make(chan struct{})}
		c.inflight[key] = fl
		c.mu.Unlock()

		fl.lib, fl.err = c.load(key, sc, build, &hit)
		c.mu.Lock()
		delete(c.inflight, key)
		if fl.err == nil {
			c.mem[key] = fl.lib
			if c.entriesG != nil {
				c.entriesG.Set(float64(len(c.mem)))
			}
		}
		c.mu.Unlock()
		close(fl.done)
		return fl.lib, hit, fl.err
	}
}

// load resolves one single-flighted key: disk layer, then compile + export.
func (c *Cache) load(key string, sc *soc.SoC, build func() (*runtime.Lib, error), hit *bool) (*runtime.Lib, error) {
	if c.dir != "" {
		if lib, n, err := c.loadDisk(key, sc); err == nil {
			c.count(func(s *CacheStats) {
				s.Hits++
				s.DiskHits++
				s.BytesRead += n
			})
			inc(c.hitsM)
			inc(c.diskHitsM)
			add(c.bytesRM, float64(n))
			*hit = true
			return lib, nil
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("registry: artifact %s: %w", key, err)
		}
	}
	c.count(func(s *CacheStats) { s.Misses++; s.Builds++ })
	inc(c.missesM)
	inc(c.buildsM)
	lib, err := build()
	if err != nil {
		return nil, err
	}
	if c.dir != "" {
		n, err := c.storeDisk(key, lib)
		if err != nil {
			return nil, fmt.Errorf("registry: exporting artifact %s: %w", key, err)
		}
		c.count(func(s *CacheStats) { s.BytesWritten += n })
		add(c.bytesWM, float64(n))
	}
	return lib, nil
}

func (c *Cache) loadDisk(key string, sc *soc.SoC) (*runtime.Lib, uint64, error) {
	f, err := os.Open(c.path(key))
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	lib, err := runtime.LoadLibrary(f, sc)
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	return lib, uint64(st.Size()), nil
}

// storeDisk exports the lib atomically: write to a temp file, then rename,
// so a concurrent process (or a crash) never observes a torn artifact.
func (c *Cache) storeDisk(key string, lib *runtime.Lib) (uint64, error) {
	tmp, err := os.CreateTemp(c.dir, key+".tmp*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name())
	if err := lib.ExportLibrary(tmp); err != nil {
		tmp.Close()
		return 0, err
	}
	st, err := tmp.Stat()
	if err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		return 0, err
	}
	return uint64(st.Size()), nil
}

func (c *Cache) count(f func(*CacheStats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}

func inc(ctr *obs.Counter) {
	if ctr != nil {
		ctr.Inc()
	}
}

func add(ctr *obs.Counter, v float64) {
	if ctr != nil {
		ctr.Add(v)
	}
}
