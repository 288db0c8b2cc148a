package imgproc

import (
	"fmt"
	"testing"
	"testing/quick"

	"rtoffload/internal/stats"
)

// decompress reconstructs a w×h image from Compress output, the
// round-trip oracle for Compress. It errors
// on truncated streams, pixel-count mismatches, and zero-length runs.
func decompress(data []byte, w, h int) (*Image, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("imgproc: invalid dimensions %d×%d", w, h)
	}
	im := New(w, h)
	n := w * h
	idx := 0
	prev := uint8(0)
	for i := 0; i < len(data); i++ {
		b := data[i]
		if b == 0x00 {
			i++
			if i >= len(data) {
				return nil, fmt.Errorf("imgproc: truncated run token at byte %d", i-1)
			}
			runLen := int(data[i])
			if runLen == 0 {
				return nil, fmt.Errorf("imgproc: zero-length run at byte %d", i)
			}
			if idx+runLen > n {
				return nil, fmt.Errorf("imgproc: run overflows image (%d+%d > %d)", idx, runLen, n)
			}
			for k := 0; k < runLen; k++ {
				im.Pix[idx] = prev
				idx++
			}
			continue
		}
		if idx >= n {
			return nil, fmt.Errorf("imgproc: residual beyond image end")
		}
		prev += b
		im.Pix[idx] = prev
		idx++
	}
	if idx != n {
		return nil, fmt.Errorf("imgproc: stream ended after %d of %d pixels", idx, n)
	}
	return im, nil
}

func TestCompressRoundTrip(t *testing.T) {
	for _, mk := range []func() *Image{
		func() *Image { return Synthetic(stats.NewRNG(1), 64, 48) },
		func() *Image { return New(32, 32) }, // all zero
		func() *Image { // flat non-zero
			im := New(17, 13)
			for i := range im.Pix {
				im.Pix[i] = 200
			}
			return im
		},
		func() *Image { // worst case: alternating
			im := New(30, 7)
			for i := range im.Pix {
				im.Pix[i] = uint8(i * 97)
			}
			return im
		},
		func() *Image { return New(1, 1) },
	} {
		im := mk()
		data := Compress(im)
		got, err := decompress(data, im.W, im.H)
		if err != nil {
			t.Fatal(err)
		}
		for i := range im.Pix {
			if got.Pix[i] != im.Pix[i] {
				t.Fatalf("pixel %d: %d vs %d", i, got.Pix[i], im.Pix[i])
			}
		}
	}
}

func TestCompressRatios(t *testing.T) {
	flat := New(100, 100)
	for i := range flat.Pix {
		flat.Pix[i] = 128
	}
	if s := CompressedSize(flat); s > int64(len(flat.Pix))/20 {
		t.Fatalf("flat image compressed to %d of %d bytes", s, int64(len(flat.Pix)))
	}
	noisy := New(100, 100)
	rng := stats.NewRNG(2)
	for i := range noisy.Pix {
		noisy.Pix[i] = uint8(rng.IntN(256))
	}
	if s := CompressedSize(noisy); s < int64(len(noisy.Pix))*9/10 {
		t.Fatalf("random noise compressed to %d of %d bytes — impossible", s, int64(len(noisy.Pix)))
	}
	// Camera-like frames land in between.
	cam := Synthetic(stats.NewRNG(3), 100, 100)
	s := CompressedSize(cam)
	if s >= int64(len(cam.Pix))+int64(len(cam.Pix))/4 || s <= int64(len(cam.Pix))/20 {
		t.Fatalf("synthetic frame compressed to %d of %d bytes", s, int64(len(cam.Pix)))
	}
}

func TestDecompressRejects(t *testing.T) {
	im := Synthetic(stats.NewRNG(4), 16, 16)
	data := Compress(im)
	cases := []struct {
		name string
		data []byte
		w, h int
	}{
		{"bad dims", data, 0, 16},
		{"truncated", data[:len(data)-1], 16, 16},
		{"overlong", append(append([]byte{}, data...), 5), 16, 16},
		{"zero run", []byte{0x00, 0x00}, 16, 16},
		{"truncated run token", []byte{0x00}, 16, 16},
		{"run overflow", []byte{0x00, 255, 0x00, 255}, 4, 4},
	}
	for _, c := range cases {
		if _, err := decompress(c.data, c.w, c.h); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// Property: round trip is the identity for arbitrary images.
func TestCompressProperty(t *testing.T) {
	f := func(seed uint64, wRaw, hRaw uint8) bool {
		w := int(wRaw%40) + 1
		h := int(hRaw%40) + 1
		rng := stats.NewRNG(seed)
		im := New(w, h)
		// Mix of flat runs and noise.
		v := uint8(rng.IntN(256))
		for i := range im.Pix {
			if rng.Bool(0.2) {
				v = uint8(rng.IntN(256))
			}
			im.Pix[i] = v
		}
		got, err := decompress(Compress(im), w, h)
		if err != nil {
			return false
		}
		for i := range im.Pix {
			if got.Pix[i] != im.Pix[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
