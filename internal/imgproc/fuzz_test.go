package imgproc

import (
	"bytes"
	"testing"

	"rtoffload/internal/stats"
)

// FuzzDecompress drives the payload decoder with arbitrary byte
// streams: it must never panic, and whenever it accepts a stream the
// re-encoded image must round-trip identically.
func FuzzDecompress(f *testing.F) {
	im := Synthetic(stats.NewRNG(1), 24, 16)
	f.Add(Compress(im), 24, 16)
	f.Add([]byte{}, 4, 4)
	f.Add([]byte{0x00, 0x10}, 4, 4)
	f.Add([]byte{0x01, 0x02, 0x03}, 1, 3)
	f.Fuzz(func(t *testing.T, data []byte, w, h int) {
		if w <= 0 || h <= 0 || w > 64 || h > 64 {
			return
		}
		got, err := decompress(data, w, h)
		if err != nil {
			return
		}
		if got.W != w || got.H != h || len(got.Pix) != w*h {
			t.Fatalf("accepted stream produced %dx%d image", got.W, got.H)
		}
		again, err := decompress(Compress(got), w, h)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(again.Pix, got.Pix) {
			t.Fatal("re-encode round trip differs")
		}
	})
}
