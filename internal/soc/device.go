// Package soc simulates the experiment platform of the paper (Table 2: an
// OPPO Reno4 Z 5G with a MediaTek Dimensity 800 — 4×Cortex-A76 + 4×Cortex-A55
// CPU, Mali-G57 MC4 GPU, and MediaTek APU 3.0).
//
// The simulator is an analytical roofline cost model plus a virtual timeline:
// every kernel launch is charged max(compute-bound, memory-bound) time plus a
// launch overhead on its device, and crossing between host memory and the APU
// charges a DMA transfer. Experiments compare *relative* inference times
// across target permutations, which this model preserves: who wins, by what
// rough factor, and where crossovers fall are all driven by real per-op MAC
// and byte counts extracted from the real model graphs.
package soc

import (
	"fmt"
)

// Seconds is the simulated time unit (virtual seconds, float64).
type Seconds float64

// Ms formats a duration in milliseconds.
func (s Seconds) Ms() float64 { return float64(s) * 1e3 }

func (s Seconds) String() string { return fmt.Sprintf("%.3fms", s.Ms()) }

// DeviceKind enumerates the backend processors of the simulated SoC.
type DeviceKind int

const (
	KindCPU DeviceKind = iota
	KindGPU
	KindAPU
	// NumDeviceKinds is the number of distinct device kinds; code that keeps
	// per-device state (locks, counters) sizes arrays with it.
	NumDeviceKinds
)

// deviceKinds is the canonical device order.
var deviceKinds = [NumDeviceKinds]DeviceKind{KindCPU, KindGPU, KindAPU}

// AllDeviceKinds lists every device kind in canonical order.
func AllDeviceKinds() []DeviceKind {
	return append([]DeviceKind(nil), deviceKinds[:]...)
}

func (k DeviceKind) String() string {
	switch k {
	case KindCPU:
		return "cpu"
	case KindGPU:
		return "gpu"
	case KindAPU:
		return "apu"
	}
	return fmt.Sprintf("device(%d)", int(k))
}

// Device models one backend processor with roofline parameters.
type Device struct {
	Kind DeviceKind
	Name string

	// PeakMACsF32/PeakMACsI8 are peak multiply-accumulates per second for
	// float32 and int8 workloads.
	PeakMACsF32 float64
	PeakMACsI8  float64
	// MemBW is the sustained memory bandwidth in bytes/second.
	MemBW float64
	// LaunchOverhead is charged once per kernel launch.
	LaunchOverhead Seconds
}

// OpTime charges one kernel: roofline of compute vs. memory traffic, scaled
// by the executing engine's efficiency (how much of peak its kernels reach),
// plus launch overhead.
func (d *Device) OpTime(w Work, efficiency float64) Seconds {
	if efficiency <= 0 {
		efficiency = 1
	}
	peak := d.PeakMACsF32
	if w.Quantized {
		peak = d.PeakMACsI8
	}
	compute := float64(w.MACs) / (peak * efficiency)
	memory := float64(w.Bytes) / d.MemBW
	t := compute
	if memory > t {
		t = memory
	}
	return Seconds(t) + d.LaunchOverhead
}

// DMALink models the transfer path between host (CPU) memory and an
// accelerator's local memory.
type DMALink struct {
	Bandwidth float64 // bytes/second
	Latency   Seconds // per-transfer setup cost
}

// TransferTime charges moving n bytes across the link.
func (l DMALink) TransferTime(n int64) Seconds {
	return l.Latency + Seconds(float64(n)/l.Bandwidth)
}

// SoC bundles the devices and interconnect of the simulated chipset.
type SoC struct {
	Name    string
	Chipset string
	OS      string
	CPU     *Device
	GPU     *Device
	APU     *Device
	// APULink is the DMA path CPU memory <-> APU local memory; every BYOC /
	// NeuroPilot subgraph boundary pays it in both directions.
	APULink DMALink
}

// Device returns the device of the given kind.
func (s *SoC) Device(k DeviceKind) *Device {
	switch k {
	case KindCPU:
		return s.CPU
	case KindGPU:
		return s.GPU
	case KindAPU:
		return s.APU
	}
	return nil
}

// NewDimensity800 builds the simulated OPPO Reno4 Z 5G platform of Table 2.
//
// Parameter provenance (order-of-magnitude public figures, not calibrated
// measurements — see DESIGN.md §2):
//   - 4×A76 @2.0GHz, 2×128-bit FMA pipes ≈ 64 GFLOP/s ≈ 32 GMAC/s fp32 for
//     the big cluster; int8 dot-product ops roughly 4× that.
//   - LPDDR4X ≈ 12 GB/s sustained.
//   - APU 3.0 family ≈ 2.4 TOPS int8 ≈ 1200 GMAC/s; fp16/fp32 path far lower.
//   - APU invocations carry a firmware round-trip of tens of microseconds.
func NewDimensity800() *SoC {
	return &SoC{
		Name:    "OPPO Reno4 Z 5G",
		Chipset: "MediaTek MT6873V Dimensity 800",
		OS:      "Android 11",
		CPU: &Device{
			Kind:           KindCPU,
			Name:           "4x2.0 GHz Cortex-A76 & 4x2.0 GHz Cortex-A55",
			PeakMACsF32:    32e9,
			PeakMACsI8:     128e9,
			MemBW:          12e9,
			LaunchOverhead: 4e-6,
		},
		GPU: &Device{
			Kind:           KindGPU,
			Name:           "Mali-G57 MC4",
			PeakMACsF32:    60e9,
			PeakMACsI8:     120e9,
			MemBW:          12e9,
			LaunchOverhead: 25e-6,
		},
		APU: &Device{
			Kind:           KindAPU,
			Name:           "MediaTek APU 3.0",
			PeakMACsF32:    180e9,
			PeakMACsI8:     1200e9,
			MemBW:          20e9,
			LaunchOverhead: 12e-6,
		},
		APULink: DMALink{Bandwidth: 8e9, Latency: 40e-6},
	}
}

// Engine efficiencies: what fraction of device peak each software stack's
// kernels achieve. TVM's portable interpreted kernels are well below the
// hand-tuned NeuroPilot libraries — the gap the paper's Figures 4/6 show.
const (
	// EffTVMCPU: TVM-compiled generic kernels on the mobile CPU.
	EffTVMCPU = 0.30
	// EffTVMCPUI8: TVM's generic int8 lowering does not use the CPU's
	// dot-product instructions, so it reaches a much smaller fraction of the
	// integer peak than the float path does of the FP peak.
	EffTVMCPUI8 = 0.10
	// EffNeuroPilotCPU: MediaTek's tuned CPU backend.
	EffNeuroPilotCPU = 0.70
	// EffNeuroPilotAPU: the APU runs near peak on supported layers.
	EffNeuroPilotAPU = 0.90
	// EffNeuroPilotGPU: the GPU delegate (extension; unused by the paper's
	// CPU/APU permutations).
	EffNeuroPilotGPU = 0.60
)

// TVMEff selects the TVM engine's efficiency for a workload.
func TVMEff(w Work) float64 {
	if w.Quantized {
		return EffTVMCPUI8
	}
	return EffTVMCPU
}
