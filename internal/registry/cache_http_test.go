package registry

import (
	"encoding/json"
	"net/http/httptest"
	"testing"

	"repro/internal/models"
	"repro/internal/runtime"
)

// TestCacheHandlerJSON: /debugz/cache reports the live counters with the
// derived hit rate, under the stable snake_case keys the fleet dashboard
// scrapes.
func TestCacheHandlerJSON(t *testing.T) {
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, err := models.BuildEmotion(models.SizeLite)
	if err != nil {
		t.Fatal(err)
	}
	opts := runtime.BuildOptions{OptLevel: 3}
	key, err := Key(m, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	build := func() (*runtime.Lib, error) { return runtime.Build(m, opts) }
	for i := 0; i < 3; i++ { // one miss+build, two memory hits
		if _, _, err := c.GetOrBuild(key, nil, build); err != nil {
			t.Fatal(err)
		}
	}

	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debugz/cache", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var got CacheStats
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("decode: %v\n%s", err, rec.Body.String())
	}
	if got.Hits != 2 || got.MemHits != 2 || got.Misses != 1 || got.Builds != 1 {
		t.Errorf("counters %+v, want 2 hits (mem), 1 miss, 1 build", got)
	}
	if want := 2.0 / 3.0; got.HitRate() != want {
		t.Errorf("HitRate() = %v, want %v", got.HitRate(), want)
	}
	if got.BytesWritten == 0 || got.MemEntries != 1 {
		t.Errorf("bytes_written=%d mem_entries=%d, want artifact persisted and resident", got.BytesWritten, got.MemEntries)
	}

	// The raw keys are part of the wire contract — dashboards parse them.
	var raw map[string]any
	json.Unmarshal(rec.Body.Bytes(), &raw)
	for _, k := range []string{"hits", "mem_hits", "disk_hits", "misses", "builds",
		"bytes_written", "bytes_read", "mem_entries", "hit_rate"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("wire document missing key %q", k)
		}
	}
	if len(raw) != 9 {
		t.Errorf("wire document has %d keys, want the 9 pinned ones: %v", len(raw), raw)
	}
	if raw["hit_rate"] != 2.0/3.0 {
		t.Errorf("hit_rate = %v, want %v", raw["hit_rate"], 2.0/3.0)
	}
}

// TestCacheHandlerEmptyNoNaN: zero traffic must yield hit_rate 0, not NaN
// (which would fail JSON encoding outright).
func TestCacheHandlerEmptyNoNaN(t *testing.T) {
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debugz/cache", nil))
	var got map[string]float64
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("decode: %v\n%s", err, rec.Body.String())
	}
	if rate, ok := got["hit_rate"]; !ok || rate != 0 {
		t.Errorf("idle hit_rate = %v (present %v), want 0", rate, ok)
	}
}
