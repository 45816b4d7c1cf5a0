package frame

import (
	"bytes"
	"math/rand"
	"testing"
)

// The per-pixel conversions the row kernels replaced, kept as the reference
// the kernels must match byte for byte: every pixel indexed by (x, y) and
// converted by rgbToYUV / yuvToRGB, chroma box-filtered by summing the
// block's converted samples.

func refRGBToPlanar(f *Frame, target PixelFormat) *Frame {
	w, h := f.Width&^1, f.Height
	rows := 1 // source rows per chroma sample
	if target == YUV420 {
		h, rows = h&^1, 2
	}
	out := New(w, h, target)
	yp, up, vp := out.planes()
	cw := w / 2
	for cy := 0; cy*rows < h; cy++ {
		for cx := 0; cx < cw; cx++ {
			var uSum, vSum int
			for dy := 0; dy < rows; dy++ {
				for dx := 0; dx < 2; dx++ {
					x, y := cx*2+dx, cy*rows+dy
					yy, uu, vv := rgbToYUV(f.AtRGB(x, y))
					yp[y*w+x] = yy
					uSum += int(uu)
					vSum += int(vv)
				}
			}
			up[cy*cw+cx] = clampU8(uSum / (rows * 2))
			vp[cy*cw+cx] = clampU8(vSum / (rows * 2))
		}
	}
	return out
}

func refPlanarToRGB(f *Frame) *Frame {
	out := New(f.Width, f.Height, RGB)
	yp, up, vp := f.planes()
	cw := f.Width / 2
	for y := 0; y < f.Height; y++ {
		cy := y
		if f.Format == YUV420 {
			cy = y / 2
		}
		for x := 0; x < f.Width; x++ {
			ci := cy*cw + x/2
			r, g, b := yuvToRGB(yp[y*f.Width+x], up[ci], vp[ci])
			out.SetRGB(x, y, r, g, b)
		}
	}
	return out
}

// conversionSizes covers odd and even dimensions (odd RGB sizes crop on the
// way to a subsampled format), a single chroma sample, and rows wider than
// any unrolling.
var conversionSizes = [][2]int{{2, 2}, {3, 3}, {4, 2}, {5, 4}, {6, 7}, {16, 9}, {33, 18}, {50, 38}, {97, 31}}

// saturating fills a frame with bytes drawn mostly from the extremes, the
// inputs that drive every clamp in the conversions.
func saturating(rng *rand.Rand, f *Frame) {
	for i := range f.Data {
		switch rng.Intn(4) {
		case 0:
			f.Data[i] = 0
		case 1:
			f.Data[i] = 255
		default:
			f.Data[i] = byte(rng.Intn(256))
		}
	}
}

func TestRGBToPlanarMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, target := range []PixelFormat{YUV420, YUV422} {
		for _, dim := range conversionSizes {
			for trial := 0; trial < 4; trial++ {
				f := New(dim[0], dim[1], RGB)
				if trial%2 == 0 {
					rng.Read(f.Data)
				} else {
					saturating(rng, f)
				}
				got, want := f.Convert(target), refRGBToPlanar(f, target)
				if got.Width != want.Width || got.Height != want.Height || got.Format != want.Format {
					t.Fatalf("%dx%d -> %v: got %dx%d %v, want %dx%d", dim[0], dim[1], target,
						got.Width, got.Height, got.Format, want.Width, want.Height)
				}
				if !bytes.Equal(got.Data, want.Data) {
					t.Fatalf("%dx%d -> %v: differs from the per-pixel reference", dim[0], dim[1], target)
				}
			}
		}
	}
}

func TestPlanarToRGBMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, format := range []PixelFormat{YUV420, YUV422} {
		for _, dim := range conversionSizes {
			w, h := dim[0]&^1, dim[1]
			if format == YUV420 {
				h &^= 1
			}
			for trial := 0; trial < 4; trial++ {
				f := New(w, h, format)
				if trial%2 == 0 {
					rng.Read(f.Data)
				} else {
					saturating(rng, f)
				}
				if got, want := f.Convert(RGB), refPlanarToRGB(f); !bytes.Equal(got.Data, want.Data) {
					t.Fatalf("%v %dx%d -> rgb: differs from the per-pixel reference", format, w, h)
				}
			}
		}
	}
}

// TestPackedYUVMatchesAllPixels checks the table form of the RGB->YUV matrix
// against rgbToYUV on every one of the 2^24 pixel values — which also proves
// the claim the tables rest on, that rgbToYUV's clamps never fire.
func TestPackedYUVMatchesAllPixels(t *testing.T) {
	var p [3]byte
	for r := 0; r < 256; r++ {
		for g := 0; g < 256; g++ {
			for b := 0; b < 256; b++ {
				p[0], p[1], p[2] = byte(r), byte(g), byte(b)
				y, u, v := rgbToYUV(p[0], p[1], p[2])
				want := uint64(y) | uint64(u)<<yuvFieldU | uint64(v)<<yuvFieldV
				if got := packedYUV(p[:]); got != want {
					t.Fatalf("rgb(%d,%d,%d): packed %#x, want %#x", r, g, b, got, want)
				}
			}
		}
	}
}

// TestConvertIntoReusesDestination pins the row kernels to writing every
// byte of a recycled destination: stale contents must not survive.
func TestConvertIntoReusesDestination(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	src := randomFrame(rng, 18, 10, RGB)
	for _, target := range []PixelFormat{YUV420, YUV422} {
		want := src.Convert(target)
		dst := New(18, 10, target)
		for i := range dst.Data {
			dst.Data[i] = 0xAA
		}
		if got := src.ConvertInto(dst, target); got != dst || !bytes.Equal(got.Data, want.Data) {
			t.Errorf("rgb -> %v into a dirty destination differs", target)
		}
		rgb := New(18, 10, RGB)
		for i := range rgb.Data {
			rgb.Data[i] = 0x55
		}
		if got := want.ConvertInto(rgb, RGB); got != rgb || !bytes.Equal(got.Data, want.Convert(RGB).Data) {
			t.Errorf("%v -> rgb into a dirty destination differs", target)
		}
	}
}
