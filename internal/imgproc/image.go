// Package imgproc is the image substrate for the paper's robot-vision
// case study (§6.1): synthetic camera frames, bilinear scaling, PSNR
// image-quality measurement, a lossless codec for transfer payloads,
// and a CPU/GPU cost model for the four applications — stereo vision,
// edge detection, object recognition and motion detection — calibrated
// to the paper's motivation example (SIFT on a 300×200 frame: ≈278 ms
// on the i3 CPU vs ≈7 ms on the GT 630M GPU). The kernels themselves
// are never run: each application is its cost model's operation
// density.
//
// The case study scales captured frames to Qi quality levels; each
// level's PSNR against the original frame is the benefit value Gi, and
// each level's pixel count drives setup time, transfer payload, and
// local compensation time. Everything here is deterministic pure Go.
package imgproc

import (
	"fmt"
	"math"

	"rtoffload/internal/stats"
)

// Image is a grayscale 8-bit image.
type Image struct {
	W, H int
	// Pix holds rows top-to-bottom, W bytes per row.
	Pix []uint8
}

// New allocates a zeroed image. It panics on non-positive dimensions.
func New(w, h int) *Image {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imgproc: invalid dimensions %d×%d", w, h))
	}
	return &Image{W: w, H: h, Pix: make([]uint8, w*h)}
}

// At returns the pixel at (x, y), clamping coordinates to the image.
func (im *Image) At(x, y int) uint8 {
	if x < 0 {
		x = 0
	}
	if x >= im.W {
		x = im.W - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= im.H {
		y = im.H - 1
	}
	return im.Pix[y*im.W+x]
}

// Set writes the pixel at (x, y); out-of-range coordinates are
// ignored.
func (im *Image) Set(x, y int, v uint8) {
	if x < 0 || x >= im.W || y < 0 || y >= im.H {
		return
	}
	im.Pix[y*im.W+x] = v
}

// Bytes reports the payload size of the raw image.
func (im *Image) Bytes() int64 { return int64(im.W) * int64(im.H) }

// Synthetic generates a deterministic camera-like test frame: a smooth
// illumination gradient, value-noise texture, and a few rectangular
// and disc "objects" with sharp edges. Sharp structure matters: it is
// what scaling destroys, so PSNR degrades realistically across levels.
func Synthetic(rng *stats.RNG, w, h int) *Image {
	im := New(w, h)
	// Two value-noise octaves: a low-frequency illumination field and a
	// mid-frequency texture (4 px lattice). The texture is what
	// downscaling progressively destroys, so the PSNR ladder spans a
	// realistic range across scaling levels; a light white-noise floor
	// models sensor grain.
	lerp := func(a, b, t float64) float64 { return a + (b-a)*t }
	octave := func(lat int) []float64 {
		gw, gh := w/lat+2, h/lat+2
		grid := make([]float64, gw*gh)
		for i := range grid {
			grid[i] = rng.Float64()
		}
		field := make([]float64, w*h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				gx, gy := x/lat, y/lat
				tx := float64(x%lat) / float64(lat)
				ty := float64(y%lat) / float64(lat)
				field[y*w+x] = lerp(
					lerp(grid[gy*gw+gx], grid[gy*gw+gx+1], tx),
					lerp(grid[(gy+1)*gw+gx], grid[(gy+1)*gw+gx+1], tx),
					ty,
				)
			}
		}
		return field
	}
	low := octave(16)
	mid := octave(4)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			grad := float64(x+y) / float64(w+h)
			fine := (rng.Float64() - 0.5) * 0.06
			v := 0.25*grad + 0.25*low[y*w+x] + 0.30*(mid[y*w+x]-0.5) + 0.35 + fine
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			im.Pix[y*w+x] = uint8(v * 255)
		}
	}
	// Objects: rectangles and discs with distinct intensities.
	nObj := 6 + rng.IntN(5)
	for o := 0; o < nObj; o++ {
		cx, cy := rng.IntN(w), rng.IntN(h)
		size := 8 + rng.IntN(w/6+1)
		val := uint8(rng.IntN(256))
		if rng.Bool(0.5) {
			for y := cy - size/2; y < cy+size/2; y++ {
				for x := cx - size/2; x < cx+size/2; x++ {
					im.Set(x, y, val)
				}
			}
		} else {
			r2 := size * size / 4
			for y := cy - size/2; y <= cy+size/2; y++ {
				for x := cx - size/2; x <= cx+size/2; x++ {
					dx, dy := x-cx, y-cy
					if dx*dx+dy*dy <= r2 {
						im.Set(x, y, val)
					}
				}
			}
		}
	}
	return im
}

// Resize produces a bilinearly interpolated image of the given
// dimensions. It panics on non-positive target dimensions.
func (im *Image) Resize(w, h int) *Image {
	out := New(w, h)
	if w == im.W && h == im.H {
		copy(out.Pix, im.Pix)
		return out
	}
	sx := float64(im.W) / float64(w)
	sy := float64(im.H) / float64(h)
	for y := 0; y < h; y++ {
		fy := (float64(y)+0.5)*sy - 0.5
		y0 := int(fy)
		ty := fy - float64(y0)
		if fy < 0 {
			y0, ty = 0, 0
		}
		for x := 0; x < w; x++ {
			fx := (float64(x)+0.5)*sx - 0.5
			x0 := int(fx)
			tx := fx - float64(x0)
			if fx < 0 {
				x0, tx = 0, 0
			}
			v00 := float64(im.At(x0, y0))
			v10 := float64(im.At(x0+1, y0))
			v01 := float64(im.At(x0, y0+1))
			v11 := float64(im.At(x0+1, y0+1))
			top := v00 + (v10-v00)*tx
			bot := v01 + (v11-v01)*tx
			v := top + (bot-top)*ty
			out.Pix[y*w+x] = uint8(v + 0.5)
		}
	}
	return out
}

// PSNRCap is the PSNR value reported for identical images (infinite
// true PSNR); the paper's Table 1 uses 99 for the unscaled level.
const PSNRCap = 99.0

// PSNR computes the peak signal-to-noise ratio between two images of
// equal dimensions, in dB, capped at PSNRCap. It panics on dimension
// mismatch.
func PSNR(a, b *Image) float64 {
	if a.W != b.W || a.H != b.H {
		panic(fmt.Sprintf("imgproc: PSNR dimension mismatch %d×%d vs %d×%d", a.W, a.H, b.W, b.H))
	}
	var se float64
	for i := range a.Pix {
		d := float64(a.Pix[i]) - float64(b.Pix[i])
		se += d * d
	}
	mse := se / float64(len(a.Pix))
	if mse == 0 {
		return PSNRCap
	}
	psnr := 10 * math.Log10(255*255/mse)
	if psnr > PSNRCap {
		return PSNRCap
	}
	return psnr
}
