package registry

import (
	"encoding/json"
	"net/http"
)

// Handler serves the cache counters as JSON — the CacheStats keys plus the
// derived hit_rate, so dashboards don't re-implement the ratio. npserve
// mounts it at /debugz/cache so the fleet dashboard can report per-worker
// artifact-cache hit rates without scraping and parsing the Prometheus
// exposition.
func (c *Cache) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := c.Stats()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			CacheStats
			HitRate float64 `json:"hit_rate"`
		}{s, s.HitRate()})
	})
}
