package soc

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
)

// The observability bridge of the simulation: Profile optionally records a
// labeled event per charge (the raw material of npc -profile's per-op
// table), and Timeline intervals / Profile events convert into
// simulated-clock obs spans for Chrome-trace export.

// ProfileEventKind classifies one profile charge.
type ProfileEventKind int

const (
	// EventOp is one kernel launch (AddOpNamed).
	EventOp ProfileEventKind = iota
	// EventDMA is one boundary transfer (AddDMANamed).
	EventDMA
	// EventDispatch is one external-subgraph dispatch overhead (AddSubgraphNamed).
	EventDispatch
)

func (k ProfileEventKind) String() string {
	switch k {
	case EventOp:
		return "op"
	case EventDMA:
		return "dma"
	case EventDispatch:
		return "dispatch"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ProfileEvent is one labeled charge: every AddOpNamed, AddDMANamed and
// AddSubgraphNamed call appends one when event recording is enabled, so the
// events partition the profile's Total() exactly — per-op tables built from
// them sum to the run's simulated time by construction.
type ProfileEvent struct {
	Kind   ProfileEventKind
	Name   string
	Device DeviceKind // meaningful for EventOp; KindCPU for host-side charges
	Time   Seconds
}

// EnableEvents turns on per-charge event recording (off by default: the
// steady-state hot path stays allocation-free when profiling is disabled).
func (p *Profile) EnableEvents() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.events == nil {
		p.events = []ProfileEvent{}
	}
}

// EventsEnabled reports whether per-charge events are being recorded.
func (p *Profile) EventsEnabled() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.events != nil
}

// Events returns a copy of the recorded charge events in charge order
// (nil unless EnableEvents was called before the charges).
func (p *Profile) Events() []ProfileEvent {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.events == nil {
		return nil
	}
	return append([]ProfileEvent(nil), p.events...)
}

// AddOpNamed charges one kernel launch attributed to a named op.
func (p *Profile) AddOpNamed(dev DeviceKind, t Seconds, name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.DeviceTime[dev] += t
	p.Launches[dev]++
	if p.events != nil {
		p.events = append(p.events, ProfileEvent{Kind: EventOp, Name: name, Device: dev, Time: t})
	}
}

// AddDMANamed charges one boundary transfer attributed to a named region.
func (p *Profile) AddDMANamed(t Seconds, name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.DMATime += t
	if p.events != nil {
		p.events = append(p.events, ProfileEvent{Kind: EventDMA, Name: name, Device: KindCPU, Time: t})
	}
}

// AddSubgraphNamed counts one external subgraph invocation attributed to a
// named region and charges its dispatch overhead.
func (p *Profile) AddSubgraphNamed(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.Subgraphs++
	p.DispatchTime += SubgraphDispatchOverhead
	if p.events != nil {
		p.events = append(p.events, ProfileEvent{Kind: EventDispatch, Name: name, Device: KindCPU, Time: SubgraphDispatchOverhead})
	}
}

// ------------------------------------------------------------ trace spans

// simTID maps a device to its simulated-clock trace row. Host-side DMA and
// dispatch charges get rows of their own after the devices.
func simTID(dev DeviceKind) int { return int(dev) + 1 }

// SimThreadNames labels the simulated-clock trace rows for export.
func SimThreadNames() map[obs.Thread]string {
	names := map[obs.Thread]string{}
	for _, k := range AllDeviceKinds() {
		names[obs.Thread{PID: obs.PIDSim, TID: simTID(k)}] = k.String()
	}
	n := len(AllDeviceKinds())
	names[obs.Thread{PID: obs.PIDSim, TID: n + 1}] = "dma"
	names[obs.Thread{PID: obs.PIDSim, TID: n + 2}] = "dispatch"
	return names
}

// TimelineSpans converts a timeline's intervals into simulated-clock spans,
// one trace row per device — the pipelined view where device-exclusivity
// gaps (the paper's Figure 5) are visible.
func TimelineSpans(tl *Timeline) []obs.Span {
	events := tl.Events()
	out := make([]obs.Span, 0, len(events))
	for _, e := range events {
		out = append(out, obs.Span{
			Name:  e.Label,
			Cat:   "timeline",
			PID:   obs.PIDSim,
			TID:   simTID(e.Device),
			Start: int64(float64(e.Start) * 1e6),
			Dur:   int64(float64(e.End-e.Start) * 1e6),
			Args:  []obs.Arg{obs.A("device", e.Device.String())},
		})
	}
	return out
}

// EventSpans lays a profile's charge events out sequentially on the
// simulated clock — the profile's charging model is a sequential sum, so
// each event starts where the previous one ended — with one trace row per
// device plus dma/dispatch rows.
func EventSpans(events []ProfileEvent) []obs.Span {
	out := make([]obs.Span, 0, len(events))
	ndev := len(AllDeviceKinds())
	var cursor Seconds
	for _, ev := range events {
		tid := simTID(ev.Device)
		switch ev.Kind {
		case EventDMA:
			tid = ndev + 1
		case EventDispatch:
			tid = ndev + 2
		}
		out = append(out, obs.Span{
			Name:  ev.Name,
			Cat:   ev.Kind.String(),
			PID:   obs.PIDSim,
			TID:   tid,
			Start: int64(float64(cursor) * 1e6),
			Dur:   int64(float64(ev.Time) * 1e6),
			Args:  []obs.Arg{obs.A("device", ev.Device.String())},
		})
		cursor += ev.Time
	}
	return out
}

// ------------------------------------------------------------ op table

// OpRow is one aggregated line of the per-op profile table: all charges
// sharing a kind, name and device.
type OpRow struct {
	Kind   ProfileEventKind
	Name   string
	Device DeviceKind
	Count  int
	Time   Seconds
}

// AggregateEvents folds charge events into per-(kind, name, device) rows
// sorted by self-time, descending. The rows' times sum exactly to the sum
// of the events' times (= Profile.Total() when the events cover one run).
func AggregateEvents(events []ProfileEvent) []OpRow {
	type key struct {
		kind ProfileEventKind
		name string
		dev  DeviceKind
	}
	agg := map[key]*OpRow{}
	var order []key
	for _, ev := range events {
		k := key{kind: ev.Kind, name: ev.Name, dev: ev.Device}
		row, ok := agg[k]
		if !ok {
			row = &OpRow{Kind: ev.Kind, Name: ev.Name, Device: ev.Device}
			agg[k] = row
			order = append(order, k)
		}
		row.Count++
		row.Time += ev.Time
	}
	out := make([]OpRow, 0, len(order))
	for _, k := range order {
		out = append(out, *agg[k])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time > out[j].Time })
	return out
}

// OpTable renders the aggregated rows as the per-op profile table npc
// -profile prints (the debug_executor-style dump): self-time sorted, with a
// total row that is the exact sum of the lines above it.
func OpTable(events []ProfileEvent) string {
	rows := AggregateEvents(events)
	var total Seconds
	for _, r := range rows {
		total += r.Time
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-44s %-8s %-9s %6s %12s %7s\n", "name", "kind", "device", "calls", "self", "%")
	for _, r := range rows {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(r.Time) / float64(total)
		}
		dev := r.Device.String()
		if r.Kind != EventOp {
			dev = "host"
		}
		fmt.Fprintf(&b, "%-44s %-8s %-9s %6d %12s %6.2f%%\n",
			truncName(r.Name, 44), r.Kind, dev, r.Count, r.Time, pct)
	}
	fmt.Fprintf(&b, "%-44s %-8s %-9s %6s %12s %6.2f%%\n", "total (simulated)", "", "", "", total, 100.0)
	return b.String()
}

func truncName(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
