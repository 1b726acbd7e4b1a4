package soc

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestTimelineEventsStableOrder(t *testing.T) {
	tl := NewTimeline()
	tl.EnableEvents()
	// Schedule out of start order: the APU task lands at [0,2], then a CPU
	// task at [0,1] and another CPU task behind it at [1,2].
	tl.Schedule(KindAPU, "apu-a", 0, 2)
	tl.Schedule(KindCPU, "cpu-a", 0, 1)
	tl.Schedule(KindCPU, "cpu-b", 0, 1)

	ev := tl.Events()
	want := []string{"cpu-a", "apu-a", "cpu-b"} // (start, device) order
	if len(ev) != len(want) {
		t.Fatalf("got %d events, want %d", len(ev), len(want))
	}
	for i, w := range want {
		if ev[i].Label != w {
			t.Errorf("event[%d] = %q, want %q", i, ev[i].Label, w)
		}
	}
	// Equal (start, device): schedule order must break the tie stably.
	tl2 := NewTimeline()
	tl2.EnableEvents()
	tl2.ScheduleMulti([]DeviceKind{KindCPU}, "first", 0, 0)
	tl2.ScheduleMulti([]DeviceKind{KindCPU}, "second", 0, 0)
	ev2 := tl2.Events()
	if ev2[0].Label != "first" || ev2[1].Label != "second" {
		t.Errorf("tied events reordered: %q, %q", ev2[0].Label, ev2[1].Label)
	}
}

func TestTimelineReset(t *testing.T) {
	tl := NewTimeline()
	tl.EnableEvents()
	tl.Schedule(KindCPU, "a", 0, 5)
	tl.Reset()
	if got := tl.Events(); len(got) != 0 {
		t.Errorf("events after Reset = %d, want 0", len(got))
	}
	if tl.Now() != 0 || tl.BusyTime(KindCPU) != 0 {
		t.Errorf("after Reset: Now %v, CPU busy %v, want 0", tl.Now(), tl.BusyTime(KindCPU))
	}
	// Device availability is cleared too: a new task starts at its ready time.
	if end := tl.Schedule(KindCPU, "b", 0, 1); end != 1 {
		t.Errorf("first task after Reset ends at %v, want 1", end)
	}
}

func TestProfileEventsOffByDefault(t *testing.T) {
	p := NewProfile()
	p.AddOpNamed(KindCPU, 1e-3, "conv")
	p.AddDMANamed(1e-4, "dma")
	p.AddSubgraphNamed("region")
	if p.EventsEnabled() {
		t.Error("EventsEnabled = true before EnableEvents")
	}
	if p.Events() != nil {
		t.Errorf("Events = %v, want nil when recording is off", p.Events())
	}
}

// Recorded events partition Total() exactly: the basis of the -profile
// table's "self times sum to the run's simulated time" guarantee.
func TestProfileEventsPartitionTotal(t *testing.T) {
	p := NewProfile()
	p.EnableEvents()
	p.AddOpNamed(KindCPU, 1e-3, "conv2d")
	p.AddOpNamed(KindAPU, 2e-3, "nir_0:CONV_2D")
	p.AddDMANamed(5e-4, "nir_0")
	p.AddSubgraphNamed("nir_0")

	events := p.Events()
	if len(events) != 4 {
		t.Fatalf("got %d events, want 4", len(events))
	}
	var sum Seconds
	for _, ev := range events {
		sum += ev.Time
	}
	if sum != p.Total() {
		t.Errorf("event sum %v != Total %v", sum, p.Total())
	}
	if events[1].Device != KindAPU || events[1].Kind != EventOp {
		t.Errorf("event[1] = %+v, want an APU op", events[1])
	}
	if events[2].Kind != EventDMA || events[3].Kind != EventDispatch {
		t.Errorf("kinds = %v %v, want dma, dispatch", events[2].Kind, events[3].Kind)
	}
}

func TestAggregateEventsFoldsAndSorts(t *testing.T) {
	events := []ProfileEvent{
		{Kind: EventOp, Name: "add", Device: KindCPU, Time: 1e-4},
		{Kind: EventOp, Name: "conv", Device: KindAPU, Time: 2e-3},
		{Kind: EventOp, Name: "add", Device: KindCPU, Time: 1e-4},
		{Kind: EventOp, Name: "add", Device: KindAPU, Time: 3e-4}, // same name, other device: own row
	}
	rows := AggregateEvents(events)
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	if rows[0].Name != "conv" {
		t.Errorf("rows not sorted by self-time: first is %q", rows[0].Name)
	}
	for _, r := range rows {
		if r.Name == "add" && r.Device == KindCPU {
			if r.Count != 2 || r.Time != 2e-4 {
				t.Errorf("cpu add row = count %d time %v, want 2, 0.0002", r.Count, r.Time)
			}
		}
	}
	var sum Seconds
	for _, r := range rows {
		sum += r.Time
	}
	if sum != 1e-4+2e-3+1e-4+3e-4 {
		t.Errorf("row sum %v does not preserve event sum", sum)
	}
}

func TestOpTable(t *testing.T) {
	p := NewProfile()
	p.EnableEvents()
	p.AddOpNamed(KindAPU, 2e-3, "nir_0:CONV_2D+relu")
	p.AddDMANamed(5e-4, "nir_0")
	out := OpTable(p.Events())
	if !strings.Contains(out, "nir_0:CONV_2D+relu") || !strings.Contains(out, "apu") {
		t.Errorf("table missing the APU op row:\n%s", out)
	}
	if !strings.Contains(out, "host") {
		t.Errorf("non-op charges should report device host:\n%s", out)
	}
	if !strings.Contains(out, "total (simulated)") || !strings.Contains(out, "100.00%") {
		t.Errorf("table missing the total row:\n%s", out)
	}
}

func TestTimelineSpans(t *testing.T) {
	tl := NewTimeline()
	tl.EnableEvents()
	tl.Schedule(KindCPU, "detect", 0, 0.5)
	tl.Schedule(KindAPU, "emotion", 0.5, 0.25)
	spans := TimelineSpans(tl)
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	for _, s := range spans {
		if s.PID != obs.PIDSim {
			t.Errorf("span %q on pid %d, want the simulated clock %d", s.Name, s.PID, obs.PIDSim)
		}
	}
	if spans[0].Start != 0 || spans[0].Dur != 500_000 {
		t.Errorf("detect span = %d+%dµs, want 0+500000", spans[0].Start, spans[0].Dur)
	}
	if spans[1].Start != 500_000 || spans[1].TID != simTID(KindAPU) {
		t.Errorf("emotion span = start %d tid %d, want 500000 on the apu row", spans[1].Start, spans[1].TID)
	}
}

// EventSpans lays charges out sequentially: each span starts where the
// previous ended, dma/dispatch on their own rows.
func TestEventSpansSequentialLayout(t *testing.T) {
	events := []ProfileEvent{
		{Kind: EventOp, Name: "conv", Device: KindAPU, Time: 1e-3},
		{Kind: EventDMA, Name: "nir_0", Device: KindCPU, Time: 5e-4},
		{Kind: EventOp, Name: "softmax", Device: KindCPU, Time: 2e-4},
	}
	spans := EventSpans(events)
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	var cursor int64
	for i, s := range spans {
		if s.Start != cursor {
			t.Errorf("span[%d] starts at %dµs, want %d (sequential)", i, s.Start, cursor)
		}
		cursor += s.Dur
	}
	ndev := len(AllDeviceKinds())
	if spans[0].TID != simTID(KindAPU) || spans[1].TID != ndev+1 || spans[2].TID != simTID(KindCPU) {
		t.Errorf("tids = %d %d %d, want apu, dma row %d, cpu", spans[0].TID, spans[1].TID, spans[2].TID, ndev+1)
	}
}

func TestSimThreadNames(t *testing.T) {
	names := SimThreadNames()
	ndev := len(AllDeviceKinds())
	if len(names) != ndev+2 {
		t.Fatalf("got %d thread names, want %d devices + dma + dispatch", len(names), ndev)
	}
	if names[obs.Thread{PID: obs.PIDSim, TID: simTID(KindCPU)}] != "cpu" {
		t.Errorf("cpu row mislabeled: %v", names)
	}
	if names[obs.Thread{PID: obs.PIDSim, TID: ndev + 1}] != "dma" ||
		names[obs.Thread{PID: obs.PIDSim, TID: ndev + 2}] != "dispatch" {
		t.Errorf("dma/dispatch rows mislabeled: %v", names)
	}
}
