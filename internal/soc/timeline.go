package soc

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Timeline is the virtual clock of the simulation. Each device is an
// exclusive resource: a task scheduled on it starts no earlier than both its
// dependencies and the device's previous task — which is exactly the
// exclusive-use constraint the paper's pipeline prototype (Figure 5) is
// built around.
type Timeline struct {
	mu    sync.Mutex
	avail map[DeviceKind]Seconds
	busy  map[DeviceKind]Seconds
	// events, when non-nil (EnableEvents), retains one Interval per device
	// occupancy for the Gantt/trace consumers. A long-running clock (the
	// server's) leaves it off: its state is then two numbers per device.
	events []Interval
}

// Interval is one scheduled occupancy of a device.
type Interval struct {
	Device DeviceKind
	Label  string
	Start  Seconds
	End    Seconds
}

// NewTimeline returns an empty timeline at virtual time zero.
func NewTimeline() *Timeline {
	return &Timeline{avail: map[DeviceKind]Seconds{}, busy: map[DeviceKind]Seconds{}}
}

// EnableEvents turns on interval retention, as Profile.EnableEvents does for
// charges: Events, Gantt and TimelineSpans see only what is scheduled after
// it. The clock itself (Avail, Now, BusyTime) does not depend on it.
func (tl *Timeline) EnableEvents() {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if tl.events == nil {
		tl.events = []Interval{}
	}
}

// occupy books [start, end) on one device. Callers hold tl.mu.
func (tl *Timeline) occupy(dev DeviceKind, label string, start, end Seconds) {
	tl.avail[dev] = end
	tl.busy[dev] += end - start
	if tl.events != nil {
		tl.events = append(tl.events, Interval{Device: dev, Label: label, Start: start, End: end})
	}
}

// Schedule places a task of the given duration on a device, starting no
// earlier than `ready` (its data dependencies) nor the device's availability.
// It returns the task's completion time.
func (tl *Timeline) Schedule(dev DeviceKind, label string, ready Seconds, dur Seconds) Seconds {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	start := ready
	if a := tl.avail[dev]; a > start {
		start = a
	}
	end := start + dur
	tl.occupy(dev, label, start, end)
	return end
}

// ScheduleMulti atomically reserves several devices for one task (an
// exclusive multi-device stage, e.g. anti-spoofing on CPU+APU): the task
// starts when *all* devices are free and its dependencies are met, and
// occupies every device until it ends.
func (tl *Timeline) ScheduleMulti(devs []DeviceKind, label string, ready Seconds, dur Seconds) Seconds {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	start := ready
	for _, d := range devs {
		if a := tl.avail[d]; a > start {
			start = a
		}
	}
	end := start + dur
	for _, d := range devs {
		tl.occupy(d, label, start, end)
	}
	return end
}

// Avail returns the next free time of a device without scheduling anything.
func (tl *Timeline) Avail(dev DeviceKind) Seconds {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return tl.avail[dev]
}

// Now returns the maximum completion time across all devices (makespan).
func (tl *Timeline) Now() Seconds {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	var m Seconds
	for _, v := range tl.avail {
		if v > m {
			m = v
		}
	}
	return m
}

// Events returns a copy of the retained intervals (none unless EnableEvents
// was called before scheduling) in a stable order: sorted by start time, then
// device, with schedule order breaking remaining ties — the deterministic
// sequence trace export and the pipeline reports rely on.
func (tl *Timeline) Events() []Interval {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	out := append([]Interval(nil), tl.events...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Device < out[j].Device
	})
	return out
}

// Reset returns the timeline to virtual time zero, dropping every retained
// interval, device availability and busy sum — so one timeline can be reused
// across measurement windows.
func (tl *Timeline) Reset() {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	tl.events = tl.events[:0]
	for k := range tl.avail {
		delete(tl.avail, k)
		delete(tl.busy, k)
	}
}

// BusyTime returns the total occupied time of one device: the running sum of
// End − Start over its occupancies, in schedule order.
func (tl *Timeline) BusyTime(dev DeviceKind) Seconds {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return tl.busy[dev]
}

// Gantt renders an ASCII Gantt chart of the timeline (one row per device),
// the textual analogue of the paper's Figure 5.
func (tl *Timeline) Gantt(width int) string {
	events := tl.Events()
	if len(events) == 0 {
		return "(empty timeline)\n"
	}
	total := tl.Now()
	if total <= 0 {
		total = 1e-9
	}
	if width <= 0 {
		width = 80
	}
	perDev := map[DeviceKind][]Interval{}
	for _, e := range events {
		perDev[e.Device] = append(perDev[e.Device], e)
	}
	kinds := make([]DeviceKind, 0, len(perDev))
	for k := range perDev {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	var b strings.Builder
	fmt.Fprintf(&b, "timeline 0 .. %s\n", total)
	for _, k := range kinds {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, e := range perDev[k] {
			lo := int(float64(e.Start) / float64(total) * float64(width))
			hi := int(float64(e.End) / float64(total) * float64(width))
			if hi <= lo {
				hi = lo + 1
			}
			if hi > width {
				hi = width
			}
			mark := byte('#')
			if len(e.Label) > 0 {
				mark = e.Label[0]
			}
			for i := lo; i < hi; i++ {
				row[i] = mark
			}
		}
		fmt.Fprintf(&b, "%-4s |%s|\n", k, row)
	}
	return b.String()
}

// Profile accumulates per-device time and launch counts for one inference;
// the bench harness prints these as the per-model rows of Figures 4 and 6.
type Profile struct {
	mu         sync.Mutex
	DeviceTime map[DeviceKind]Seconds
	DMATime    Seconds
	// DispatchTime is host-side overhead for invoking external (NeuroPilot)
	// subgraphs — one runtime round-trip per subgraph. A graph shattered
	// into many regions pays this repeatedly (the paper's anti-spoofing
	// many-subgraphs pathology).
	DispatchTime Seconds
	Launches     map[DeviceKind]int
	Subgraphs    int // external (NeuroPilot) subgraph invocations

	// events, when non-nil (EnableEvents), records one labeled entry per
	// charge — the raw material of the per-op profile table (see trace.go).
	events []ProfileEvent
}

// SubgraphDispatchOverhead is the host cost of one external-runtime
// invocation (JNI/HAL round-trip in the real stack).
const SubgraphDispatchOverhead Seconds = 30e-6

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{DeviceTime: map[DeviceKind]Seconds{}, Launches: map[DeviceKind]int{}}
}

// AddOp charges one kernel launch (unattributed; AddOpNamed records the op
// name into the event stream when profiling is enabled).
func (p *Profile) AddOp(dev DeviceKind, t Seconds) {
	p.AddOpNamed(dev, t, "(op)")
}

// AddDMA charges one boundary transfer.
func (p *Profile) AddDMA(t Seconds) {
	p.AddDMANamed(t, "(dma)")
}

// AddSubgraph counts one external subgraph invocation and charges its
// dispatch overhead.
func (p *Profile) AddSubgraph() {
	p.AddSubgraphNamed("(dispatch)")
}

// Total returns the summed sequential inference time (per-device time plus
// DMA), the quantity the paper's bar charts report per model/target. Devices
// are summed in canonical order, not map order, so two calls agree to the
// last bit.
func (p *Profile) Total() Seconds {
	p.mu.Lock()
	defer p.mu.Unlock()
	t := p.DMATime + p.DispatchTime
	for _, k := range deviceKinds {
		t += p.DeviceTime[k]
	}
	return t
}

func (p *Profile) String() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var parts []string
	kinds := make([]DeviceKind, 0, len(p.DeviceTime))
	for k := range p.DeviceTime {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%s=%s/%dops", k, p.DeviceTime[k], p.Launches[k]))
	}
	if p.DMATime > 0 {
		parts = append(parts, fmt.Sprintf("dma=%s", p.DMATime))
	}
	if p.Subgraphs > 0 {
		parts = append(parts, fmt.Sprintf("subgraphs=%d", p.Subgraphs))
	}
	return strings.Join(parts, " ")
}
