package frame

import (
	"bytes"
	"math/rand"
	"testing"
)

// refResizeInterleaved is the per-pixel bilinear kernel resizePlane
// replaced, kept as the reference it must match byte for byte: every output
// pixel recomputes its column taps, for every channel.
func refResizeInterleaved(f *Frame, tw, th, bpp int) *Frame {
	out := New(tw, th, f.Format)
	const shift = 16
	const one = 1 << shift
	sx := ((f.Width - 1) << shift) / max(tw-1, 1)
	sy := ((f.Height - 1) << shift) / max(th-1, 1)
	for oy := 0; oy < th; oy++ {
		fy := oy * sy
		y0 := fy >> shift
		wy := fy & (one - 1)
		y1 := y0 + 1
		if y1 >= f.Height {
			y1 = f.Height - 1
		}
		row0 := y0 * f.Width * bpp
		row1 := y1 * f.Width * bpp
		outRow := oy * tw * bpp
		for ox := 0; ox < tw; ox++ {
			fx := ox * sx
			x0 := fx >> shift
			wx := fx & (one - 1)
			x1 := x0 + 1
			if x1 >= f.Width {
				x1 = f.Width - 1
			}
			for c := 0; c < bpp; c++ {
				p00 := int(f.Data[row0+x0*bpp+c])
				p01 := int(f.Data[row0+x1*bpp+c])
				p10 := int(f.Data[row1+x0*bpp+c])
				p11 := int(f.Data[row1+x1*bpp+c])
				top := p00 + ((p01-p00)*wx)>>shift
				bot := p10 + ((p11-p10)*wx)>>shift
				out.Data[outRow+ox*bpp+c] = clampU8(top + ((bot-top)*wy)>>shift)
			}
		}
	}
	return out
}

// TestResizePlaneMatchesReference pins the tap kernel to the per-pixel
// reference on RGB and Gray planes of every shape class: shrink, grow,
// single rows and columns, and saturated content that drives the
// interpolation to its extremes.
func TestResizePlaneMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sizes := [][2]int{{1, 1}, {1, 7}, {9, 1}, {2, 2}, {5, 3}, {16, 9}, {33, 18}, {97, 31}}
	for _, format := range []PixelFormat{RGB, Gray} {
		bpp := 1
		if format == RGB {
			bpp = 3
		}
		for _, src := range sizes {
			for _, dst := range sizes {
				f := New(src[0], src[1], format)
				saturating(rng, f)
				want := refResizeInterleaved(f, dst[0], dst[1], bpp)
				got := New(dst[0], dst[1], format)
				resizePlane(f.Data, f.Width, f.Height, got.Data, dst[0], dst[1], bpp)
				if !bytes.Equal(got.Data, want.Data) {
					t.Fatalf("%v %dx%d -> %dx%d: differs from the per-pixel reference", format, src[0], src[1], dst[0], dst[1])
				}
			}
		}
	}
}

// TestResizePlanarPerPlane checks that a planar resize is exactly the
// reference kernel run over each plane at its own size.
func TestResizePlanarPerPlane(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, format := range []PixelFormat{YUV420, YUV422} {
		f := randomFrame(rng, 48, 34, format)
		g := f.Resize(20, 14)
		if g.Format != format || g.Width != 20 || g.Height != 14 {
			t.Fatalf("%v: got %v %dx%d", format, g.Format, g.Width, g.Height)
		}
		sp := planesOf(f)
		gp := planesOf(g)
		for i := range sp {
			want := refResizeInterleaved(sp[i], gp[i].Width, gp[i].Height, 1)
			if !bytes.Equal(gp[i].Data, want.Data) {
				t.Errorf("%v plane %d differs from the reference kernel", format, i)
			}
		}
	}
}

// planesOf splits a planar frame into its Y, U and V planes as Gray frames.
func planesOf(f *Frame) [3]*Frame {
	y, u, v := f.planes()
	cw, ch := f.Format.chromaDims(f.Width, f.Height)
	return [3]*Frame{
		{Width: f.Width, Height: f.Height, Format: Gray, Data: y},
		{Width: cw, Height: ch, Format: Gray, Data: u},
		{Width: cw, Height: ch, Format: Gray, Data: v},
	}
}
