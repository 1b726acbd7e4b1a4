package soc

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/relay"
	"repro/internal/tensor"
)

func TestDimensity800Spec(t *testing.T) {
	sc := NewDimensity800()
	if sc.Chipset != "MediaTek MT6873V Dimensity 800" || sc.OS != "Android 11" {
		t.Error("Table 2 identity wrong")
	}
	if sc.CPU.Kind != KindCPU || sc.APU.Kind != KindAPU || sc.GPU.Kind != KindGPU {
		t.Error("device kinds wrong")
	}
	if sc.Device(KindAPU) != sc.APU || sc.Device(KindCPU) != sc.CPU {
		t.Error("Device() lookup wrong")
	}
	// The APU must dominate on int8 compute; the CPU has lower launch cost.
	if sc.APU.PeakMACsI8 <= sc.CPU.PeakMACsI8 {
		t.Error("APU should out-MAC the CPU on int8")
	}
	if sc.CPU.LaunchOverhead >= sc.APU.LaunchOverhead {
		t.Error("CPU launches should be cheaper than APU invocations")
	}
}

func TestOpTimeRoofline(t *testing.T) {
	d := &Device{PeakMACsF32: 1e9, PeakMACsI8: 4e9, MemBW: 1e9, LaunchOverhead: 0}
	// Compute-bound: lots of MACs, few bytes.
	computeBound := d.OpTime(Work{MACs: 1e9, Bytes: 10}, 1)
	if math.Abs(float64(computeBound)-1.0) > 1e-9 {
		t.Errorf("compute-bound time %v, want 1s", computeBound)
	}
	// Memory-bound: few MACs, lots of bytes.
	memBound := d.OpTime(Work{MACs: 10, Bytes: 1e9}, 1)
	if math.Abs(float64(memBound)-1.0) > 1e-9 {
		t.Errorf("memory-bound time %v, want 1s", memBound)
	}
	// Quantized work uses the int8 peak.
	q := d.OpTime(Work{MACs: 4e9, Bytes: 10, Quantized: true}, 1)
	if math.Abs(float64(q)-1.0) > 1e-9 {
		t.Errorf("int8 time %v, want 1s", q)
	}
	// Efficiency scales compute time.
	half := d.OpTime(Work{MACs: 1e9, Bytes: 10}, 0.5)
	if math.Abs(float64(half)-2.0) > 1e-9 {
		t.Errorf("eff=0.5 time %v, want 2s", half)
	}
}

func TestDMATransfer(t *testing.T) {
	l := DMALink{Bandwidth: 1e9, Latency: 1e-6}
	got := l.TransferTime(1e9)
	if math.Abs(float64(got)-(1+1e-6)) > 1e-12 {
		t.Errorf("transfer time %v", got)
	}
}

func TestTimelineScheduling(t *testing.T) {
	tl := NewTimeline()
	tl.EnableEvents()
	end1 := tl.Schedule(KindCPU, "a", 0, 10)
	if end1 != 10 {
		t.Errorf("first task end %v", end1)
	}
	// Same device: serialized.
	end2 := tl.Schedule(KindCPU, "b", 0, 5)
	if end2 != 15 {
		t.Errorf("second CPU task end %v, want 15", end2)
	}
	// Other device: parallel.
	end3 := tl.Schedule(KindAPU, "c", 0, 7)
	if end3 != 7 {
		t.Errorf("APU task end %v, want 7", end3)
	}
	if tl.Now() != 15 {
		t.Errorf("makespan %v", tl.Now())
	}
	if tl.BusyTime(KindCPU) != 15 || tl.BusyTime(KindAPU) != 7 {
		t.Error("busy times wrong")
	}
	if tl.Avail(KindAPU) != 7 {
		t.Error("Avail wrong")
	}
	if len(tl.Events()) != 3 {
		t.Error("events not recorded")
	}
}

// A timeline nobody asked events of keeps the clock and the busy sums and
// retains nothing, however long it runs.
func TestTimelineWithoutEventsRetainsNothing(t *testing.T) {
	tl, ref := NewTimeline(), NewTimeline()
	ref.EnableEvents()
	for i := 0; i < 1000; i++ {
		dur := Seconds(i%7+1) * 1e-4
		for _, x := range []*Timeline{tl, ref} {
			x.Schedule(KindCPU, "a", 0, dur)
			x.ScheduleMulti([]DeviceKind{KindCPU, KindAPU}, "b", Seconds(i)*1e-3, dur/3)
		}
	}
	if n := len(tl.Events()); n != 0 {
		t.Errorf("retained %d intervals without EnableEvents", n)
	}
	if len(ref.Events()) != 3000 {
		t.Errorf("reference retained %d intervals, want 3000", len(ref.Events()))
	}
	for _, d := range AllDeviceKinds() {
		// The running sum adds the same End − Start terms in the same order
		// as a walk over the retained intervals: equal to the bit.
		var walked Seconds
		for _, e := range ref.events {
			if e.Device == d {
				walked += e.End - e.Start
			}
		}
		if tl.BusyTime(d) != walked || ref.BusyTime(d) != walked {
			t.Errorf("%s: busy %v / %v, interval walk %v", d, tl.BusyTime(d), ref.BusyTime(d), walked)
		}
		if tl.Avail(d) != ref.Avail(d) {
			t.Errorf("%s: avail %v vs %v", d, tl.Avail(d), ref.Avail(d))
		}
	}
	if tl.Now() != ref.Now() {
		t.Errorf("makespan %v vs %v", tl.Now(), ref.Now())
	}
}

// Total must not depend on map iteration order: 0.1, 0.2 and 0.3 sum to
// different float64 values in different orders.
func TestProfileTotalIsBitStable(t *testing.T) {
	p := NewProfile()
	p.AddOpNamed(KindAPU, 0.3, "op")
	p.AddOpNamed(KindGPU, 0.2, "op")
	p.AddOpNamed(KindCPU, 0.1, "op")
	want := math.Float64bits(float64(Seconds(0.1) + Seconds(0.2) + Seconds(0.3)))
	for i := 0; i < 1000; i++ {
		if got := math.Float64bits(float64(p.Total())); got != want {
			t.Fatalf("call %d: Total bits %#x, want %#x (CPU+GPU+APU order)", i, got, want)
		}
	}
}

func TestProfileAccumulation(t *testing.T) {
	p := NewProfile()
	p.AddOpNamed(KindCPU, 1e-3, "op")
	p.AddOpNamed(KindAPU, 2e-3, "op")
	p.AddDMANamed(0.5e-3, "dma")
	p.AddSubgraphNamed("region")
	want := Seconds(1e-3 + 2e-3 + 0.5e-3 + float64(SubgraphDispatchOverhead))
	if math.Abs(float64(p.Total()-want)) > 1e-12 {
		t.Errorf("total %v, want %v", p.Total(), want)
	}
	if p.Subgraphs != 1 || p.Launches[KindCPU] != 1 {
		t.Error("counters wrong")
	}
	s := p.String()
	if !strings.Contains(s, "cpu") || !strings.Contains(s, "subgraphs=1") {
		t.Errorf("profile string %q", s)
	}
}

func TestWorkOfConv(t *testing.T) {
	data := relay.NewVar("d", relay.TType(tensor.Float32, 1, 8, 8, 3))
	w := relay.Const(tensor.New(tensor.Float32, tensor.Shape{4, 3, 3, 3}))
	conv := relay.NewCall(relay.GetOp("nn.conv2d"), []relay.Expr{data, w},
		relay.Attrs{"padding": []int{1, 1}})
	if _, err := relay.InferTypes(relay.NewFunc([]*relay.Var{data}, conv)); err != nil {
		t.Fatal(err)
	}
	work := WorkOf(conv)
	// MACs = 8*8*4 outputs × 3*3*3 taps.
	if work.MACs != 8*8*4*27 {
		t.Errorf("conv MACs %d, want %d", work.MACs, 8*8*4*27)
	}
	if work.Quantized {
		t.Error("float conv flagged quantized")
	}
	if work.Bytes <= 0 {
		t.Error("no bytes counted")
	}
}

func TestWorkOfQuantizedConv(t *testing.T) {
	q := tensor.QuantParams{Scale: 0.02, ZeroPoint: 128}
	wq := tensor.QuantParams{Scale: 0.01, ZeroPoint: 0}
	data := relay.NewVar("d", relay.QTType(tensor.UInt8, q, 1, 8, 8, 3))
	wt := tensor.New(tensor.Float32, tensor.Shape{4, 3, 3, 3}).QuantizeTo(tensor.UInt8, wq)
	conv := relay.NewCall(relay.GetOp("qnn.conv2d"), []relay.Expr{data, relay.Const(wt)},
		relay.Attrs{"padding": []int{1, 1}, "input_scale": q.Scale, "input_zero_point": 128,
			"kernel_scale": wq.Scale, "kernel_zero_point": 0})
	if _, err := relay.InferTypes(relay.NewFunc([]*relay.Var{data}, conv)); err != nil {
		t.Fatal(err)
	}
	if !WorkOf(conv).Quantized {
		t.Error("quantized conv not flagged")
	}
}

func TestGantt(t *testing.T) {
	tl := NewTimeline()
	tl.EnableEvents()
	tl.Schedule(KindCPU, "d0", 0, 5)
	tl.Schedule(KindAPU, "e0", 5, 5)
	g := tl.Gantt(40)
	if !strings.Contains(g, "cpu") || !strings.Contains(g, "apu") {
		t.Errorf("gantt missing devices:\n%s", g)
	}
	if !strings.Contains(g, "d") || !strings.Contains(g, "e") {
		t.Errorf("gantt missing labels:\n%s", g)
	}
}

// Property: OpTime is monotone in both MACs and bytes.
func TestOpTimeMonotoneProperty(t *testing.T) {
	d := NewDimensity800().CPU
	f := func(m1, m2, b1, b2 uint32) bool {
		w1 := Work{MACs: int64(m1 % 1e6), Bytes: int64(b1 % 1e6)}
		w2 := Work{MACs: w1.MACs + int64(m2%1e6), Bytes: w1.Bytes + int64(b2%1e6)}
		return d.OpTime(w2, EffTVMCPU) >= d.OpTime(w1, EffTVMCPU)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: timeline makespan equals the max of per-device busy spans when
// all tasks are ready at 0 (no idle gaps are created).
func TestTimelineNoSpuriousIdleProperty(t *testing.T) {
	f := func(durs []uint16) bool {
		tl := NewTimeline()
		var cpuSum Seconds
		for _, d := range durs {
			dur := Seconds(float64(d%1000)) * 1e-6
			tl.Schedule(KindCPU, "x", 0, dur)
			cpuSum += dur
		}
		return math.Abs(float64(tl.BusyTime(KindCPU)-cpuSum)) < 1e-12 &&
			math.Abs(float64(tl.Now()-cpuSum)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
