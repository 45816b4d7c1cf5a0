package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/codec"
	"repro/internal/frame"
	"repro/internal/quality"
	"repro/internal/visualroad"
)

// refConvertFrame is the conversion convertFrame replaced, kept as the
// reference route: every source frame goes to RGB first, is cropped and
// resized there, and comes back as RGB whatever the output needs.
func refConvertFrame(src *frame.Frame, p physSnap, r resolvedSpec) (*frame.Frame, error) {
	rgb := src
	if src.Format != frame.RGB {
		rgb = src.Convert(frame.RGB)
	}
	pw, ph := float64(p.width), float64(p.height)
	rx := (r.roi.X0 - p.roi.X0) / (p.roi.X1 - p.roi.X0)
	ry := (r.roi.Y0 - p.roi.Y0) / (p.roi.Y1 - p.roi.Y0)
	rx1 := (r.roi.X1 - p.roi.X0) / (p.roi.X1 - p.roi.X0)
	ry1 := (r.roi.Y1 - p.roi.Y0) / (p.roi.Y1 - p.roi.Y0)
	crop := frame.Rect{
		X0: int(rx*pw + 0.5), Y0: int(ry*ph + 0.5),
		X1: int(rx1*pw + 0.5), Y1: int(ry1*ph + 0.5),
	}
	if crop.Dx() < 1 {
		crop.X1 = crop.X0 + 1
	}
	if crop.Dy() < 1 {
		crop.Y1 = crop.Y0 + 1
	}
	cropped := rgb
	if crop != frame.FullRect(p.width, p.height) {
		var err error
		cropped, err = rgb.Crop(crop)
		if err != nil {
			return nil, err
		}
	}
	if cropped.Width != r.roiW || cropped.Height != r.roiH {
		cropped = cropped.Resize(r.roiW, r.roiH)
	}
	return cropped, nil
}

// roadFrames renders n visualroad frames at the benchmark harness's size.
func roadFrames(n int) []*frame.Frame {
	return visualroad.Generate(visualroad.Config{Width: 480, Height: 272, FPS: 8, Seed: 7}, n)
}

// resolveFor resolves spec against a 480x272 video without a store.
func resolveFor(spec ReadSpec) (resolvedSpec, error) {
	v := &VideoMeta{Name: "v", FPS: 8, Width: 480, Height: 272, Duration: 1}
	return (&Store{}).resolve(v, spec)
}

// TestConvertFrameOutputs runs every source format through every kind of
// output at every size class and checks the frame that comes out: exact
// dimensions and format, byte-exact when nothing had to change, never
// aliasing the source when it is raw output, and, from RGB sources, exactly
// the reference route's pixels (the only step that differs there is where
// the final conversion happens).
func TestConvertFrameOutputs(t *testing.T) {
	rgb := roadFrames(1)[0]
	sources := []*frame.Frame{rgb, rgb.Convert(frame.YUV420)}
	outputs := []struct {
		name string
		p    Physical
	}{
		{"h264", Physical{Codec: codec.H264}},
		{"raw-rgb", Physical{Format: frame.RGB}},
		{"raw-yuv420", Physical{Format: frame.YUV420}},
	}
	roi := frame.Rect{X0: 100, Y0: 50, X1: 340, Y1: 186}
	sizes := []struct {
		name string
		s    Spatial
	}{
		{"same", Spatial{}},
		{"240x136", Spatial{Width: 240, Height: 136}},
		{"120x68", Spatial{Width: 120, Height: 68}},
		{"121x67", Spatial{Width: 121, Height: 67}},
		{"roi", Spatial{ROI: &roi}},
	}
	p := physSnap{width: 480, height: 272, roi: FullNRect()}
	for _, src := range sources {
		for _, out := range outputs {
			for _, size := range sizes {
				name := fmt.Sprintf("%v->%s@%s", src.Format, out.name, size.name)
				r, err := resolveFor(ReadSpec{S: size.s, P: out.p})
				if err != nil {
					// Only odd sizes in a subsampled output are refused.
					if r.format == frame.RGB || !errors.Is(err, ErrInvalidSpec) {
						t.Errorf("%s: resolve: %v", name, err)
					}
					continue
				}
				got, err := convertFrame(src, p, r)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got.Width != r.roiW || got.Height != r.roiH || got.Format != r.format ||
					len(got.Data) != r.format.Size(r.roiW, r.roiH) {
					t.Fatalf("%s: got %v %dx%d (%d bytes), want %v %dx%d", name,
						got.Format, got.Width, got.Height, len(got.Data), r.format, r.roiW, r.roiH)
				}
				if !r.codec.Compressed() && &got.Data[0] == &src.Data[0] {
					t.Fatalf("%s: raw output shares the source's pixels", name)
				}
				if size.name == "same" && src.Format == r.format && !bytes.Equal(got.Data, src.Data) {
					t.Errorf("%s: an unchanged frame was not copied byte for byte", name)
				}
				ref, err := refConvertFrame(src, p, r)
				if err != nil {
					t.Fatal(err)
				}
				ref = ref.Convert(r.format)
				if src.Format == frame.RGB && !bytes.Equal(got.Data, ref.Data) {
					t.Errorf("%s: differs from the reference route", name)
				}
				if psnr, _ := quality.PSNR(got, ref); psnr < 30 {
					t.Errorf("%s: %.1f dB from the reference route", name, psnr)
				}
			}
		}
	}
}

// boxDown averages k x k blocks of an RGB frame: the downscale a resampler
// is measured against.
func boxDown(f *frame.Frame, k int) *frame.Frame {
	out := frame.New(f.Width/k, f.Height/k, frame.RGB)
	for y := 0; y < out.Height; y++ {
		for x := 0; x < out.Width; x++ {
			var sum [3]int
			for dy := 0; dy < k; dy++ {
				for dx := 0; dx < k; dx++ {
					i := ((y*k+dy)*f.Width + x*k + dx) * 3
					for c := range sum {
						sum[c] += int(f.Data[i+c])
					}
				}
			}
			for c, s := range sum {
				out.Data[(y*out.Width+x)*3+c] = byte(s / (k * k))
			}
		}
	}
	return out
}

// luma views a YUV420 frame's Y plane as a Gray frame.
func luma(f *frame.Frame) *frame.Frame {
	n := f.Width * f.Height
	return &frame.Frame{Width: f.Width, Height: f.Height, Format: frame.Gray, Data: f.Data[:n]}
}

// TestConvertFrameQualityMatchesRGBRoute downscales decoded (YUV420)
// frames plane by plane and holds the result to the RGB route it replaced,
// both measured against a box-filtered downscale of the pristine RGB frame:
// luma within 0.1 dB, RGB (where the unfiltered chroma sampling shows)
// within 1.5 dB.
func TestConvertFrameQualityMatchesRGBRoute(t *testing.T) {
	frames := roadFrames(4)
	p := physSnap{width: 480, height: 272, roi: FullNRect()}
	for _, k := range []int{2, 4} {
		var lumaNew, lumaRef, rgbNew, rgbRef float64
		for _, pristine := range frames {
			src := pristine.Convert(frame.YUV420)
			want := boxDown(pristine, k)
			wantY := luma(want.Convert(frame.YUV420))
			s := Spatial{Width: 480 / k, Height: 272 / k}
			rRGB, err := resolveFor(ReadSpec{S: s, P: Physical{Format: frame.RGB}})
			if err != nil {
				t.Fatal(err)
			}
			rYUV, err := resolveFor(ReadSpec{S: s, P: Physical{Format: frame.YUV420}})
			if err != nil {
				t.Fatal(err)
			}
			gotRGB, _ := convertFrame(src, p, rRGB)
			gotYUV, _ := convertFrame(src, p, rYUV)
			ref, _ := refConvertFrame(src, p, rRGB)
			add := func(acc *float64, a, b *frame.Frame) {
				v, err := quality.PSNR(a, b)
				if err != nil {
					t.Fatal(err)
				}
				*acc += v / float64(len(frames))
			}
			add(&lumaNew, luma(gotYUV), wantY)
			add(&lumaRef, luma(ref.Convert(frame.YUV420)), wantY)
			add(&rgbNew, gotRGB, want)
			add(&rgbRef, ref, want)
		}
		t.Logf("1/%d: luma %.2f dB (RGB route %.2f), rgb %.2f dB (RGB route %.2f)", k, lumaNew, lumaRef, rgbNew, rgbRef)
		if lumaNew < lumaRef-0.1 {
			t.Errorf("1/%d: luma PSNR %.2f dB, RGB route %.2f", k, lumaNew, lumaRef)
		}
		if rgbNew < rgbRef-1.5 {
			t.Errorf("1/%d: RGB PSNR %.2f dB, RGB route %.2f", k, rgbNew, rgbRef)
		}
	}
}

// TestOddOutputSizeRejected: a size the output format cannot represent is
// a spec error, raised before anything is planned, decoded or admitted.
// (A raw YUV420 read at 33x25 once returned 32x24 frames under a 33x25
// header, and an h264 read decoded every GOP before its encoder failed.)
func TestOddOutputSizeRejected(t *testing.T) {
	s := newStore(t, Options{})
	writeVideo(t, s, "v", scene(16, 64, 48, 40), 4, codec.H264)
	decodes := func() int64 { return s.Pipeline().Snapshot()["decode"].Count }
	before := decodes()
	for _, c := range []struct {
		name string
		spec ReadSpec
	}{
		{"raw yuv420 33x25", ReadSpec{S: Spatial{Width: 33, Height: 25}, P: Physical{Format: frame.YUV420}}},
		{"raw yuv420 32x25", ReadSpec{S: Spatial{Width: 32, Height: 25}, P: Physical{Format: frame.YUV420}}},
		{"raw yuv422 33x24", ReadSpec{S: Spatial{Width: 33, Height: 24}, P: Physical{Format: frame.YUV422}}},
		{"h264 33x25", ReadSpec{S: Spatial{Width: 33, Height: 25}, P: Physical{Codec: codec.H264}}},
		{"hevc roi 31x24", ReadSpec{S: Spatial{ROI: &frame.Rect{X0: 1, Y0: 0, X1: 32, Y1: 24}}, P: Physical{Codec: codec.HEVC}}},
		{"ls 33x24", ReadSpec{S: Spatial{Width: 33, Height: 24}, P: Physical{Codec: codec.LS}}},
	} {
		if _, err := s.Read("v", c.spec); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%s: Read: %v, want ErrInvalidSpec", c.name, err)
		}
		if _, err := s.ReadStream(t.Context(), "v", c.spec); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%s: ReadStream: %v, want ErrInvalidSpec", c.name, err)
		}
	}
	if got := decodes(); got != before {
		t.Errorf("rejected reads decoded %d GOPs", got-before)
	}
	if _, phys, _ := s.Info("v"); len(phys) != 1 {
		t.Errorf("rejected reads admitted %d views", len(phys)-1)
	}
	// Sizes the output format can hold still read.
	for _, spec := range []ReadSpec{
		{S: Spatial{Width: 33, Height: 25}, P: Physical{Format: frame.RGB}},
		{S: Spatial{Width: 32, Height: 25}, P: Physical{Format: frame.YUV422}},
	} {
		res, err := s.Read("v", spec)
		if err != nil {
			t.Fatal(err)
		}
		if f := res.Frames[0]; f.Width != res.Width || f.Height != res.Height || f.Format != spec.P.Format {
			t.Errorf("%v %dx%d read: frame %v %dx%d", spec.P.Format, res.Width, res.Height, f.Format, f.Width, f.Height)
		}
	}
}

// TestCompressedReadOverMixedFormatCover plans a downscaled hevc read across
// a raw RGB view and the h264 original, so one output GOP holds frames
// resampled from both. Every frame handed to the encoder must be in one
// format.
func TestCompressedReadOverMixedFormatCover(t *testing.T) {
	s := newStore(t, Options{})
	writeVideo(t, s, "v", scene(48, 64, 48, 41), 4, codec.H264)
	// Cache [1, 3) as raw RGB (the default raw layout).
	res, err := s.Read("v", ReadSpec{T: Temporal{Start: 1, End: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Admitted {
		t.Fatal("raw read not admitted")
	}
	// [0, 4) at 8-frame GOPs: the first output GOP is 4 frames of the
	// original plus 4 of the raw view.
	res, err = s.Read("v", ReadSpec{S: Spatial{Width: 32, Height: 24}, T: Temporal{Start: 0, End: 4}, P: Physical{Codec: codec.HEVC}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PlanRuns < 2 {
		t.Fatalf("plan has %d runs, want the raw view between two runs of the original", res.Stats.PlanRuns)
	}
	if n := res.FrameCount(); n != 16 {
		t.Errorf("frame count %d, want 16", n)
	}
}

// TestRawReadFramesUnshared: frames a raw read returns are the caller's to
// keep and mutate. They share storage neither with each other nor with
// anything the store holds on to, including when a read is served at its
// own size and layout from a raw view.
func TestRawReadFramesUnshared(t *testing.T) {
	s := newStore(t, Options{})
	writeVideo(t, s, "v", scene(16, 64, 48, 42), 4, codec.H264)
	specs := []ReadSpec{
		{T: Temporal{Start: 0, End: 2}, P: Physical{Format: frame.YUV420}}, // the original's own layout
		{T: Temporal{Start: 0, End: 2}, P: Physical{Format: frame.RGB}},    // admits a raw RGB view ...
		{T: Temporal{Start: 0, End: 2}, P: Physical{Format: frame.RGB}},    // ... and reads it back as is
	}
	for i, spec := range specs {
		res, err := s.Read("v", spec)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[*byte]bool)
		want := make([][]byte, len(res.Frames))
		for j, f := range res.Frames {
			if seen[&f.Data[0]] {
				t.Fatalf("read %d: frame %d shares pixels with an earlier frame", i, j)
			}
			seen[&f.Data[0]] = true
			want[j] = bytes.Clone(f.Data)
			for k := range f.Data {
				f.Data[k] = 0xEE
			}
		}
		again, err := s.Read("v", spec)
		if err != nil {
			t.Fatal(err)
		}
		for j, f := range again.Frames {
			if !bytes.Equal(f.Data, want[j]) {
				t.Fatalf("read %d: frame %d changed after the previous result was overwritten", i, j)
			}
		}
	}
}
