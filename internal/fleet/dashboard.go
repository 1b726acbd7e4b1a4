package fleet

import (
	"encoding/json"
	"fmt"
	"html/template"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/serve"
)

// The /dashboardz surface: one server-rendered HTML page over the values the
// machine-readable endpoints serve — the /statsz document (roster, totals,
// each worker's own /statsz), the /debugz/requests slow lane, the SLO state
// captured by the health probes, and each worker's /debugz/cache. No
// scripts, no external assets: curl it, open it in a browser, or archive it
// as a CI artifact and it still renders.

// dashWorker is one worker's dashboard section. Stats is nil for a worker
// that is down or whose /statsz could not be read; Cache is nil for a worker
// without /debugz/cache (npserve mounts it, a bare serve.Server has none).
type dashWorker struct {
	Info  WorkerInfo
	Stats *serve.StatsResponse
	SLO   []obs.SLOStatus
	Cache *registry.CacheStats
}

// dashData is everything the template renders.
type dashData struct {
	Generated string
	Fleet     FleetStats
	Healthy   int
	Workers   []dashWorker
	// Slow is the fleet-wide slow lane, worst first, capped for the page.
	Slow []obs.FlightRecord
}

// dashboardData assembles the page model.
func (rt *Router) dashboardData() dashData {
	d := dashData{
		Generated: rt.now().UTC().Format(time.RFC3339),
		Fleet:     rt.fleetStats(),
		Slow:      rt.debugRequests().Slow,
	}
	d.Healthy = routable(d.Fleet.Workers)
	if len(d.Slow) > 10 {
		d.Slow = d.Slow[:10]
	}
	caches := map[string]*registry.CacheStats{}
	rt.eachHealthy("/debugz/cache", func(wi WorkerInfo, body []byte) error {
		var cs registry.CacheStats
		err := json.Unmarshal(body, &cs)
		if err == nil {
			caches[wi.Key] = &cs
		}
		return err
	})
	for _, wi := range d.Fleet.Workers {
		dw := dashWorker{Info: wi, Cache: caches[wi.Key]}
		if raw, ok := d.Fleet.PerWork[wi.Key]; ok {
			var st serve.StatsResponse
			if json.Unmarshal(raw, &st) == nil {
				dw.Stats = &st
			}
		}
		if wi.Healthy {
			dw.SLO = rt.sloOf(wi.Key)
		}
		d.Workers = append(d.Workers, dw)
	}
	return d
}

var dashTemplate = template.Must(template.New("dashboardz").Funcs(template.FuncMap{
	"minutes": func(ms float64) float64 { return ms / 60_000 },
	"pct":     func(fraction float64) float64 { return fraction * 100 },
	"pnn":     func(quantile float64) string { return fmt.Sprintf("p%g", quantile*100) },
	"qps": func(completed uint64, uptimeMs float64) float64 {
		if uptimeMs <= 0 {
			return 0
		}
		return float64(completed) / (uptimeMs / 1000)
	},
}).Parse(`<!doctype html>
<html><head><meta charset="utf-8"><title>npfleet dashboard</title>
<style>
body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem; color: #1a2330; }
h1 { font-size: 1.3rem; } h2 { font-size: 1.05rem; margin-top: 1.6rem; }
table { border-collapse: collapse; margin: .4rem 0 1rem; }
th, td { border: 1px solid #cfd6e0; padding: .25rem .6rem; text-align: right; }
th { background: #eef2f7; } td:first-child, th:first-child { text-align: left; }
.ok { color: #0a7a33; } .bad { color: #b3261e; font-weight: 600; }
.meta { color: #5b6777; font-size: .85rem; }
.bar { display: inline-block; width: 160px; height: 10px; background: #f3d6d4; border-radius: 5px; vertical-align: middle; }
.bar i { display: block; height: 100%; background: #2e9e5b; border-radius: 5px; }
a { color: #1a56b0; text-decoration: none; } a:hover { text-decoration: underline; }
</style></head><body>
<h1>npfleet dashboard</h1>
<p class="meta">generated {{.Generated}} · router up {{printf "%.1f" (minutes .Fleet.UptimeMs)}} min ·
{{.Healthy}}/{{len .Workers}} workers healthy ·
routed {{printf "%.0f" .Fleet.Routed}} · retried {{printf "%.0f" .Fleet.Retried}} · failed {{printf "%.0f" .Fleet.Failed}}</p>

{{range .Workers}}
<h2>worker {{.Info.Key}} <span class="meta">{{.Info.URL}}</span>
{{if not .Info.Healthy}}<span class="bad">DOWN</span>{{else if .Info.Draining}}<span class="bad">draining</span>{{else}}<span class="ok">healthy</span>{{end}}</h2>
{{if and .Info.Healthy (not .Stats)}}<p class="bad">stats scrape failed</p>{{end}}
{{with .Stats}}{{if .Models}}{{$up := .UptimeMs}}
<table>
<tr><th>model</th><th>version</th><th>qps</th><th>completed</th><th>failed</th><th>rejected</th><th>expired</th><th>p50 ms</th><th>p95 ms</th><th>p99 ms</th></tr>
{{range .Models}}
<tr><td>{{.Model}}</td><td>{{.Version}}</td><td>{{printf "%.2f" (qps .Completed $up)}}</td><td>{{.Completed}}</td>
<td{{if .Failed}} class="bad"{{end}}>{{.Failed}}</td><td>{{.Rejected}}</td><td>{{.Expired}}</td>
<td>{{printf "%.2f" .Latency.P50Ms}}</td><td>{{printf "%.2f" .Latency.P95Ms}}</td><td>{{printf "%.2f" .Latency.P99Ms}}</td></tr>
{{end}}
</table>
{{end}}{{end}}
{{if .SLO}}
<table>
<tr><th>SLO</th><th>objective</th><th>window reqs</th><th>burn rate</th><th>budget left</th><th></th></tr>
{{range .SLO}}
<tr><td>{{.Model}}</td><td>{{pnn .ObjectiveQuantile}} &le; {{printf "%.0f" .ThresholdMs}} ms</td>
<td>{{.Requests}}</td>
<td{{if not .Healthy}} class="bad"{{end}}>{{printf "%.2f" .BurnRate}}</td>
<td>{{printf "%.0f" (pct .BudgetRemaining)}}%</td>
<td><span class="bar"><i style="width: {{printf "%.0f" (pct .BudgetRemaining)}}%"></i></span></td></tr>
{{end}}
</table>
{{end}}
{{with .Cache}}<p class="meta">artifact cache: {{printf "%.0f" (pct .HitRate)}}% hit rate
({{.Hits}} hits / {{.Misses}} misses, {{.Builds}} builds, {{.MemEntries}} resident)</p>{{end}}
{{end}}

<h2>slowest requests</h2>
{{if .Slow}}
<table>
<tr><th>trace</th><th>model</th><th>worker</th><th>status</th><th>total ms</th><th>queue ms</th><th>exec ms</th></tr>
{{range .Slow}}
<tr><td>{{if .TraceID}}<a href="/tracez?id={{.TraceID}}">{{.TraceID}}</a>{{else}}—{{end}}</td>
<td>{{.Model}}</td><td>{{.Worker}}</td>
<td{{if ne .Status "ok"}} class="bad"{{end}}>{{.Status}}</td>
<td>{{printf "%.2f" .TotalMs}}</td><td>{{printf "%.2f" .QueueMs}}</td><td>{{printf "%.2f" .ExecMs}}</td></tr>
{{end}}
</table>
{{else}}<p class="meta">no requests past the slow threshold yet.</p>{{end}}
</body></html>
`))

// handleDashboard renders the fleet health dashboard.
func (rt *Router) handleDashboard(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := dashTemplate.Execute(w, rt.dashboardData()); err != nil {
		// The header is already out; all we can do is log-by-metric.
		rt.scrapeErrC.Inc()
	}
}
