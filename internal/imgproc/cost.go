package imgproc

import (
	"fmt"

	"rtoffload/internal/rtime"
)

// Kernel names the four case-study applications.
type Kernel int

const (
	// KernelStereo is block-matching stereo vision (τ1).
	KernelStereo Kernel = iota
	// KernelEdge is Sobel edge detection (τ2).
	KernelEdge
	// KernelRecognition is template/feature object recognition (τ3) —
	// the SIFT stand-in of the motivation example.
	KernelRecognition
	// KernelMotion is frame-difference motion detection (τ4).
	KernelMotion
)

// OpsPerPixel returns the kernel's arithmetic-operation density, the
// workload parameter of the cost model. Stereo scans 16 disparities
// over 8×8 blocks (amortized ~3 ops × 16 disparities per pixel);
// recognition runs a multi-scale descriptor pipeline, dominating the
// others by two orders of magnitude.
func (k Kernel) OpsPerPixel() float64 {
	switch k {
	case KernelStereo:
		return 48 * 16
	case KernelEdge:
		return 18
	case KernelRecognition:
		return 4000
	case KernelMotion:
		return 3
	default:
		return 0
	}
}

// CostModel converts kernel workloads into execution times on the
// client CPU and the GPU server.
//
// The default calibration reproduces the paper's motivation example —
// object recognition on a 300×200 frame runs in ≈278 ms on the Intel
// i3-2310M and ≈7 ms on the GT 630M — and applies the same throughput
// ratio to the other kernels.
type CostModel struct {
	CPUOpsPerSec float64
	GPUOpsPerSec float64
	// SetupOverhead is the fixed local cost of preparing any offload
	// (buffer init, header packing) before per-byte work.
	SetupOverhead rtime.Duration
	// SetupBytesPerSec is the throughput of the local transmit path
	// (compress + copy) applied per payload byte.
	SetupBytesPerSec float64
}

// DefaultCostModel returns the calibration described above.
func DefaultCostModel() CostModel {
	// 300×200 × 4000 ops = 2.4e8 ops; 278 ms ⇒ ≈0.863 Gops/s CPU;
	// 7 ms ⇒ ≈34.3 Gops/s GPU.
	return CostModel{
		CPUOpsPerSec:     8.63e8,
		GPUOpsPerSec:     3.43e10,
		SetupOverhead:    rtime.FromMillisF(0.5),
		SetupBytesPerSec: 5e7, // 50 MB/s compress+copy path
	}
}

// Validate checks the model.
func (m CostModel) Validate() error {
	if m.CPUOpsPerSec <= 0 || m.GPUOpsPerSec <= 0 {
		return fmt.Errorf("imgproc: non-positive throughput in cost model")
	}
	if m.SetupOverhead < 0 || m.SetupBytesPerSec <= 0 {
		return fmt.Errorf("imgproc: invalid setup costs")
	}
	return nil
}

// CPUTime estimates the kernel's local execution time on w×h pixels.
func (m CostModel) CPUTime(k Kernel, w, h int) rtime.Duration {
	ops := k.OpsPerPixel() * float64(w) * float64(h)
	return rtime.FromSeconds(ops / m.CPUOpsPerSec)
}

// GPUTime estimates the kernel's service time on the GPU server.
func (m CostModel) GPUTime(k Kernel, w, h int) rtime.Duration {
	ops := k.OpsPerPixel() * float64(w) * float64(h)
	return rtime.FromSeconds(ops / m.GPUOpsPerSec)
}

// SetupTime estimates Ci,1 for shipping a w×h frame: fixed overhead,
// the bilinear scaling pass (a few ops per output pixel on the CPU),
// and the per-byte transmit-path cost.
func (m CostModel) SetupTime(w, h int) rtime.Duration {
	scaleOps := 8 * float64(w) * float64(h)
	scale := rtime.FromSeconds(scaleOps / m.CPUOpsPerSec)
	payload := rtime.FromSeconds(float64(w) * float64(h) / m.SetupBytesPerSec)
	return m.SetupOverhead + scale + payload
}

// LevelSpec describes one scaling level of a case-study task.
type LevelSpec struct {
	W, H    int
	PSNR    float64        // measured image quality vs the original frame
	Payload int64          // bytes shipped to the server
	CPUTime rtime.Duration // kernel time if executed locally at this size
	GPUTime rtime.Duration // kernel service time on the GPU
	Setup   rtime.Duration // Ci,1: scale + pack + transmit path
}

// BuildLevels measures a ladder of scaling levels for a kernel on a
// reference frame: fractions lists the linear scale factors in
// increasing order, e.g. {1/4, 1/2, 3/4, 1}. The PSNR of each level is
// measured by the round trip scale-down → scale-up against the
// original frame; the top fraction 1.0 yields the PSNR cap (the
// paper's 99). Returns one LevelSpec per fraction.
func BuildLevels(m CostModel, k Kernel, frame *Image, fractions []float64) ([]LevelSpec, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(fractions) == 0 {
		return nil, fmt.Errorf("imgproc: no fractions")
	}
	specs := make([]LevelSpec, 0, len(fractions))
	prev := 0.0
	for _, f := range fractions {
		if f <= 0 || f > 1 {
			return nil, fmt.Errorf("imgproc: fraction %g out of (0,1]", f)
		}
		if f <= prev {
			return nil, fmt.Errorf("imgproc: fractions must be strictly increasing")
		}
		prev = f
		w := int(float64(frame.W)*f + 0.5)
		h := int(float64(frame.H)*f + 0.5)
		if w < 1 {
			w = 1
		}
		if h < 1 {
			h = 1
		}
		down := frame.Resize(w, h)
		var psnr float64
		if w == frame.W && h == frame.H {
			psnr = PSNRCap
		} else {
			up := down.Resize(frame.W, frame.H)
			psnr = PSNR(frame, up)
		}
		specs = append(specs, LevelSpec{
			W: w, H: h,
			PSNR: psnr,
			// The wire payload is the lossless-compressed frame; raw
			// size only bounds it from above on pathological inputs.
			Payload: CompressedSize(down),
			CPUTime: m.CPUTime(k, w, h),
			GPUTime: m.GPUTime(k, w, h),
			Setup:   m.SetupTime(w, h),
		})
	}
	return specs, nil
}
