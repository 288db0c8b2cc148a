package imgproc

import (
	"math"
	"testing"

	"rtoffload/internal/stats"
)

func frame(t *testing.T, w, h int) *Image {
	t.Helper()
	return Synthetic(stats.NewRNG(42), w, h)
}

func TestNewAtSet(t *testing.T) {
	im := New(4, 3)
	im.Set(1, 2, 77)
	if im.At(1, 2) != 77 {
		t.Fatal("Set/At broken")
	}
	// Clamping reads.
	im.Set(0, 0, 10)
	if im.At(-5, -5) != 10 {
		t.Error("negative clamp")
	}
	im.Set(3, 2, 20)
	if im.At(99, 99) != 20 {
		t.Error("positive clamp")
	}
	// Ignored out-of-range writes.
	im.Set(-1, 0, 99)
	im.Set(4, 0, 99)
	if im.At(0, 0) != 10 {
		t.Error("out-of-range write leaked")
	}
	if im.Bytes() != 12 {
		t.Errorf("Bytes = %d", im.Bytes())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New(0,0) did not panic")
		}
	}()
	New(0, 0)
}

func TestSyntheticDeterministic(t *testing.T) {
	a := Synthetic(stats.NewRNG(7), 64, 48)
	b := Synthetic(stats.NewRNG(7), 64, 48)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("Synthetic not deterministic")
		}
	}
	c := Synthetic(stats.NewRNG(8), 64, 48)
	diff := 0
	for i := range a.Pix {
		if a.Pix[i] != c.Pix[i] {
			diff++
		}
	}
	if diff < len(a.Pix)/10 {
		t.Fatalf("different seeds produced nearly identical frames (%d diffs)", diff)
	}
}

func TestSyntheticHasStructure(t *testing.T) {
	im := frame(t, 128, 96)
	// A useful test frame must not be flat: decent pixel variance.
	var mean float64
	for _, p := range im.Pix {
		mean += float64(p)
	}
	mean /= float64(len(im.Pix))
	var varsum float64
	for _, p := range im.Pix {
		d := float64(p) - mean
		varsum += d * d
	}
	if sd := math.Sqrt(varsum / float64(len(im.Pix))); sd < 20 {
		t.Fatalf("frame too flat: stddev %g", sd)
	}
}

func TestResizeIdentity(t *testing.T) {
	im := frame(t, 40, 30)
	same := im.Resize(40, 30)
	for i := range im.Pix {
		if same.Pix[i] != im.Pix[i] {
			t.Fatal("identity resize changed pixels")
		}
	}
}

func TestResizeRoundTripQuality(t *testing.T) {
	im := frame(t, 160, 120)
	// Round-trip PSNR must degrade monotonically with smaller scales.
	fracs := []float64{0.25, 0.5, 0.75}
	prev := 0.0
	for _, f := range fracs {
		w, h := int(160*f), int(120*f)
		rt := im.Resize(w, h).Resize(160, 120)
		p := PSNR(im, rt)
		if p <= prev {
			t.Fatalf("PSNR not increasing with scale: %g after %g", p, prev)
		}
		if p < 10 || p > 60 {
			t.Fatalf("implausible round-trip PSNR %g at fraction %g", p, f)
		}
		prev = p
	}
}

func TestPSNR(t *testing.T) {
	im := frame(t, 32, 32)
	if p := PSNR(im, im); p != PSNRCap {
		t.Fatalf("identical PSNR = %g, want cap", p)
	}
	noisy := New(im.W, im.H)
	for i, p := range im.Pix {
		noisy.Pix[i] = p ^ 1 // tiny distortion
	}
	p := PSNR(im, noisy)
	if p >= PSNRCap || p < 40 {
		t.Fatalf("tiny-noise PSNR = %g", p)
	}
	inverted := New(im.W, im.H)
	for i, p := range im.Pix {
		inverted.Pix[i] = 255 - p
	}
	if q := PSNR(im, inverted); q >= p {
		t.Fatalf("heavy distortion PSNR %g not below light %g", q, p)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	PSNR(im, New(5, 5))
}

func TestCostModelCalibration(t *testing.T) {
	m := DefaultCostModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// The motivation example: recognition on 300×200.
	cpu := m.CPUTime(KernelRecognition, 300, 200)
	gpu := m.GPUTime(KernelRecognition, 300, 200)
	if math.Abs(cpu.Millis()-278) > 5 {
		t.Errorf("CPU recognition = %v, want ≈278ms", cpu)
	}
	if math.Abs(gpu.Millis()-7) > 0.5 {
		t.Errorf("GPU recognition = %v, want ≈7ms", gpu)
	}
	// GPU must dominate for every kernel.
	for _, k := range []Kernel{KernelStereo, KernelEdge, KernelRecognition, KernelMotion} {
		if m.GPUTime(k, 640, 480) >= m.CPUTime(k, 640, 480) {
			t.Errorf("%v: GPU not faster", k)
		}
	}
}

func TestCostModelValidate(t *testing.T) {
	for i, m := range []CostModel{
		{},
		{CPUOpsPerSec: 1, GPUOpsPerSec: 0, SetupBytesPerSec: 1},
		{CPUOpsPerSec: 1, GPUOpsPerSec: 1, SetupBytesPerSec: 0},
		{CPUOpsPerSec: 1, GPUOpsPerSec: 1, SetupBytesPerSec: 1, SetupOverhead: -1},
	} {
		if err := m.Validate(); err == nil {
			t.Errorf("model %d accepted", i)
		}
	}
}

func TestKernelString(t *testing.T) {
	names := map[Kernel]string{
		KernelStereo:      "stereo-vision",
		KernelEdge:        "edge-detection",
		KernelRecognition: "object-recognition",
		KernelMotion:      "motion-detection",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d = %q", int(k), k.String())
		}
		if k.OpsPerPixel() <= 0 {
			t.Errorf("%v: OpsPerPixel = %g", k, k.OpsPerPixel())
		}
	}
	if Kernel(9).String() == "" || Kernel(9).OpsPerPixel() != 0 {
		t.Error("unknown kernel handling")
	}
}

func TestBuildLevels(t *testing.T) {
	m := DefaultCostModel()
	im := frame(t, 320, 240)
	fracs := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	specs, err := BuildLevels(m, KernelEdge, im, fracs)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 5 {
		t.Fatalf("%d specs", len(specs))
	}
	for i, s := range specs {
		if i > 0 {
			p := specs[i-1]
			if s.PSNR <= p.PSNR {
				t.Errorf("level %d: PSNR %g not above %g", i, s.PSNR, p.PSNR)
			}
			if s.Payload <= p.Payload || s.CPUTime <= p.CPUTime || s.Setup <= p.Setup {
				t.Errorf("level %d: costs not increasing", i)
			}
		}
		if s.GPUTime >= s.CPUTime {
			t.Errorf("level %d: GPU slower than CPU", i)
		}
	}
	if specs[4].PSNR != PSNRCap {
		t.Errorf("top level PSNR = %g, want cap", specs[4].PSNR)
	}
	// Bad inputs.
	if _, err := BuildLevels(m, KernelEdge, im, nil); err == nil {
		t.Error("empty fractions accepted")
	}
	if _, err := BuildLevels(m, KernelEdge, im, []float64{0.5, 0.5}); err == nil {
		t.Error("non-increasing fractions accepted")
	}
	if _, err := BuildLevels(m, KernelEdge, im, []float64{1.5}); err == nil {
		t.Error("fraction > 1 accepted")
	}
	if _, err := BuildLevels(CostModel{}, KernelEdge, im, fracs); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestSetupTimeGrows(t *testing.T) {
	m := DefaultCostModel()
	small := m.SetupTime(80, 60)
	large := m.SetupTime(640, 480)
	if large <= small || small <= 0 {
		t.Fatalf("setup times: small=%v large=%v", small, large)
	}
	if small < m.SetupOverhead {
		t.Error("setup below fixed overhead")
	}
}

func benchFrame(b *testing.B, w, h int) *Image {
	b.Helper()
	return Synthetic(stats.NewRNG(1), w, h)
}

func BenchmarkResizeHalf640x480(b *testing.B) {
	im := benchFrame(b, 640, 480)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		im.Resize(320, 240)
	}
}

func BenchmarkCompress640x480(b *testing.B) {
	im := benchFrame(b, 640, 480)
	b.SetBytes(im.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compress(im)
	}
}

func BenchmarkPSNR640x480(b *testing.B) {
	a := benchFrame(b, 640, 480)
	c := a.Resize(320, 240).Resize(640, 480)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PSNR(a, c)
	}
}
