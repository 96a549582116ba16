// Package accel is the cost model of the paper's elastic workload offloading
// (§V-C, Fig. 5). The DFPT grid phases emit thousands of tiny GEMMs, each far
// too short to amortize an accelerator launch; Cost pads their shapes to a
// stride, groups calls of identical padded shape (i.e. similar computational
// strength) into batched workloads, and offloads a batch only when it is
// profitable under the device's cost model — otherwise the batch stays on
// the host. Nothing here executes a GEMM: Cost reads a call list's shapes
// and returns the *virtual* time an accelerator (ORISE-like GPU or
// Sunway-like many-core CPE cluster) would have spent on it, which is what
// the Fig. 9 and Table I experiments (internal/perf) report. The engine runs
// its numerics through linalg.BatchPlan and never imports this package.
package accel

import (
	"time"

	"qframan/internal/linalg"
)

// Device models one accelerator's cost structure.
type Device struct {
	Name string
	// LaunchOverhead is the fixed cost per offloaded workload (kernel
	// launch + driver).
	LaunchOverhead time.Duration
	// TransferBytesPerSec is the host↔device bandwidth; zero means
	// shared memory (the Sunway CPE model: no PCIe copies).
	TransferBytesPerSec float64
	// FLOPsPerSec is the sustained GEMM rate of the device.
	FLOPsPerSec float64
	// HostFLOPsPerSec is the host core's rate, used to decide
	// profitability and to cost unbatched work.
	HostFLOPsPerSec float64
}

// ORISEDevice models one GPU of the ORISE supercomputer: high peak rate,
// PCIe transfers, large launch overhead.
func ORISEDevice() Device {
	// The FP64 peak per GPU is implied by the paper's Table I: 85.27
	// PFLOPS at 53.8% of peak over 24,000 GPUs → 6.6 TFLOPS each.
	return Device{
		Name:                "orise-gpu",
		LaunchOverhead:      12 * time.Microsecond,
		TransferBytesPerSec: 12e9,
		FLOPsPerSec:         6.6e12,
		HostFLOPsPerSec:     19.2e9, // one host core's share
	}
}

// SunwayDevice models one SW26010-pro core group: shared memory (no copy),
// smaller launch overhead, lower peak.
func SunwayDevice() Device {
	// Table I implies 399.9 PFLOPS at 29.5% of peak over 96,000 nodes →
	// 14.1 TFLOPS per node, 2.35 TFLOPS per core group (6 per node).
	return Device{
		Name:            "sunway-cg",
		LaunchOverhead:  4 * time.Microsecond,
		FLOPsPerSec:     2.35e12,
		HostFLOPsPerSec: 8e9,
	}
}

// Stats is the modeled cost of one call list.
type Stats struct {
	GEMMs          int64
	Batches        int64 // offloaded batched workloads
	OffloadedGEMMs int64
	HostGEMMs      int64
	// HostTime/DeviceTime are modeled times under the cost model.
	HostTime   time.Duration
	DeviceTime time.Duration
	// FLOPs moved to the device vs kept on host.
	OffloadedFLOPs int64
	HostFLOPs      int64
}

// ModeledTime returns the total virtual execution time (host and device
// phases are serialized, matching the synchronous offload of the paper's
// per-strip execution).
func (s Stats) ModeledTime() time.Duration { return s.HostTime + s.DeviceTime }

// Options tunes the elastic batching decisions.
type Options struct {
	// Stride pads each GEMM dimension up to a multiple of this value
	// before grouping (the paper batches with a stride of 32).
	Stride int
	// MinBatch is the smallest batch worth offloading. The paper reports
	// packing at least 64 calls per workload when several fragments share
	// a process; a single fragment's strip yields smaller groups, so the
	// default gate is lower and profitability does the real filtering.
	MinBatch int
	// Offload enables the device; when false everything is costed on the
	// host (the Fig. 9 baseline).
	Offload bool
	// BatchingDisabled offloads each GEMM individually (the strawman that
	// shows why elastic batching is needed).
	BatchingDisabled bool
}

// DefaultOptions mirrors the paper's settings (stride 32). The batch gate
// is left at 1: the profitability model already keeps unprofitably small
// groups on the host, and a hard gate is only useful for the ablation
// benchmarks.
func DefaultOptions() Options {
	return Options{Stride: 32, MinBatch: 1, Offload: true}
}

// shapeKey is the padded GEMM shape used for grouping.
type shapeKey struct{ m, k, n int }

func pad(v, stride int) int {
	if stride <= 1 {
		return v
	}
	return (v + stride - 1) / stride * stride
}

// Cost models one submission of calls — one phase of one DFPT cycle — under
// the device and the offload strategy, executing nothing. bytes[i] is the
// host↔device traffic of calls[i] when the caller knows it (the DFPT grid
// phases keep their basis tabulations resident on the accelerator and return
// only small reductions); a nil bytes means everything moves: A and B in, C
// out, 8 bytes per element.
func Cost(dev Device, opt Options, calls []linalg.GemmCall, bytes []int64) Stats {
	bytesOf := func(i int) int64 {
		if bytes != nil {
			return bytes[i]
		}
		c := &calls[i]
		return 8 * int64(len(c.A.Data)+len(c.B.Data)+len(c.C.Data))
	}
	s := Stats{GEMMs: int64(len(calls))}
	onHost := func(i int) {
		f := calls[i].FLOPs()
		s.HostTime += dev.hostTime(f)
		s.HostGEMMs++
		s.HostFLOPs += f
	}
	onDevice := func(gemms int, flops, moved int64) {
		s.DeviceTime += dev.deviceTime(flops, moved)
		s.OffloadedGEMMs += int64(gemms)
		s.OffloadedFLOPs += flops
	}
	switch {
	case !opt.Offload:
		for i := range calls {
			onHost(i)
		}
	case opt.BatchingDisabled:
		for i := range calls {
			onDevice(1, calls[i].FLOPs(), bytesOf(i))
		}
	default:
		// Elastic batching: group by padded shape; offload profitable
		// groups. Durations and counts are integers, so the map's iteration
		// order cannot change the sums.
		groups := map[shapeKey][]int{}
		for i := range calls {
			m, k, n := calls[i].Shape()
			key := shapeKey{pad(m, opt.Stride), pad(k, opt.Stride), pad(n, opt.Stride)}
			groups[key] = append(groups[key], i)
		}
		for key, idxs := range groups {
			// The batched kernel computes the padded shape; the host
			// alternative computes the actual shapes.
			padded := int64(len(idxs)) * linalg.GemmFLOPs(key.m, key.k, key.n)
			var actual, moved int64
			for _, i := range idxs {
				actual += calls[i].FLOPs()
				moved += bytesOf(i)
			}
			if len(idxs) >= opt.MinBatch && dev.deviceTime(padded, moved) < dev.hostTime(actual) {
				onDevice(len(idxs), padded, moved)
				s.Batches++
			} else {
				for _, i := range idxs {
					onHost(i)
				}
			}
		}
	}
	return s
}

// hostTime is the time the host core needs for flops.
func (d Device) hostTime(flops int64) time.Duration {
	return time.Duration(float64(flops) / d.HostFLOPsPerSec * 1e9)
}

// deviceTime is one offloaded workload: launch, compute, and — unless the
// device shares memory with the host — transfer.
func (d Device) deviceTime(flops, bytes int64) time.Duration {
	t := d.LaunchOverhead + time.Duration(float64(flops)/d.FLOPsPerSec*1e9)
	if d.TransferBytesPerSec > 0 {
		t += time.Duration(float64(bytes) / d.TransferBytesPerSec * 1e9)
	}
	return t
}
