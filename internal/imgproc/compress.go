package imgproc

// Compress encodes the image losslessly with a left-predictor +
// zero-run-length scheme — the "data compression" part of the paper's
// setup phase Ci,1. Smooth regions (flat walls, sky) collapse into
// runs; textured or noisy frames stay near raw size, which is exactly
// the trade-off a real offloading client sees.
//
// Format: a stream of tokens. Token 0x00 is followed by a run length
// byte n (1..255) meaning n consecutive zero residuals; any other byte
// is a single non-zero residual. Residuals are p − left (mod 256),
// with the predictor carrying across row ends in scanline order and
// starting at 0.
func Compress(im *Image) []byte {
	out := make([]byte, 0, len(im.Pix)/2)
	prev := uint8(0)
	run := 0
	flush := func() {
		for run > 0 {
			n := run
			if n > 255 {
				n = 255
			}
			out = append(out, 0x00, uint8(n))
			run -= n
		}
	}
	for _, p := range im.Pix {
		r := p - prev
		prev = p
		if r == 0 {
			run++
			continue
		}
		flush()
		out = append(out, r)
	}
	flush()
	return out
}

// CompressedSize reports the payload size of the compressed image —
// the bytes actually shipped to the server.
func CompressedSize(im *Image) int64 { return int64(len(Compress(im))) }
