package frame

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randomFrame(rng *rand.Rand, w, h int, format PixelFormat) *Frame {
	f := New(w, h, format)
	rng.Read(f.Data)
	return f
}

func TestPixelFormatSize(t *testing.T) {
	cases := []struct {
		format PixelFormat
		w, h   int
		want   int
	}{
		{RGB, 4, 4, 48},
		{YUV420, 4, 4, 24},
		{YUV422, 4, 4, 32},
		{Gray, 4, 4, 16},
		{RGB, 1920, 1080, 1920 * 1080 * 3},
		{YUV420, 1920, 1080, 1920 * 1080 * 3 / 2},
	}
	for _, c := range cases {
		if got := c.format.Size(c.w, c.h); got != c.want {
			t.Errorf("%v.Size(%d,%d) = %d, want %d", c.format, c.w, c.h, got, c.want)
		}
	}
}

func TestPixelFormatValidate(t *testing.T) {
	if err := YUV420.Validate(3, 4); err == nil {
		t.Error("YUV420 should reject odd width")
	}
	if err := YUV420.Validate(4, 3); err == nil {
		t.Error("YUV420 should reject odd height")
	}
	if err := YUV422.Validate(3, 3); err == nil {
		t.Error("YUV422 should reject odd width")
	}
	if err := YUV422.Validate(4, 3); err != nil {
		t.Errorf("YUV422 should accept odd height: %v", err)
	}
	if err := RGB.Validate(0, 4); err == nil {
		t.Error("should reject zero width")
	}
	if err := RGB.Validate(3, 3); err != nil {
		t.Errorf("RGB should accept odd dims: %v", err)
	}
}

func TestParsePixelFormatRoundTrip(t *testing.T) {
	for _, f := range []PixelFormat{RGB, YUV420, YUV422, Gray} {
		got, err := ParsePixelFormat(f.String())
		if err != nil {
			t.Fatalf("ParsePixelFormat(%q): %v", f.String(), err)
		}
		if got != f {
			t.Errorf("round trip %v -> %v", f, got)
		}
	}
	if _, err := ParsePixelFormat("h264"); err == nil {
		t.Error("expected error for unknown format")
	}
}

func TestNewAllocatesCorrectSize(t *testing.T) {
	f := New(16, 8, YUV420)
	if len(f.Data) != YUV420.Size(16, 8) {
		t.Errorf("data size %d, want %d", len(f.Data), YUV420.Size(16, 8))
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for odd yuv420 dimensions")
		}
	}()
	New(3, 3, YUV420)
}

func TestCloneIsDeep(t *testing.T) {
	f := New(4, 4, RGB)
	g := f.Clone()
	g.Data[0] = 99
	if f.Data[0] == 99 {
		t.Error("clone shares data with original")
	}
}

func TestSetAtRGB(t *testing.T) {
	f := New(8, 8, RGB)
	f.SetRGB(3, 5, 10, 20, 30)
	r, g, b := f.AtRGB(3, 5)
	if r != 10 || g != 20 || b != 30 {
		t.Errorf("got (%d,%d,%d)", r, g, b)
	}
}

func TestRGBGrayRoundTripIsClose(t *testing.T) {
	// A gray ramp should survive rgb->gray->rgb almost exactly.
	f := New(16, 1, RGB)
	for x := 0; x < 16; x++ {
		v := byte(x * 16)
		f.SetRGB(x, 0, v, v, v)
	}
	back := f.Convert(Gray).Convert(RGB)
	for x := 0; x < 16; x++ {
		r, _, _ := back.AtRGB(x, 0)
		want := int(x * 16)
		if abs(int(r)-want) > 3 {
			t.Errorf("x=%d: got %d want ~%d", x, r, want)
		}
	}
}

func TestRGBYUVRoundTripQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, format := range []PixelFormat{YUV420, YUV422} {
		f := randomSmooth(rng, 32, 32)
		back := f.Convert(format).Convert(RGB)
		// Smooth content through chroma subsampling should stay close.
		var sum float64
		for i := range f.Data {
			d := float64(int(f.Data[i]) - int(back.Data[i]))
			sum += d * d
		}
		mse := sum / float64(len(f.Data))
		if mse > 40 {
			t.Errorf("%v round trip MSE = %.1f, want < 40", format, mse)
		}
	}
}

// randomSmooth builds a low-frequency RGB frame (random gradients), the
// natural content class for chroma subsampling.
func randomSmooth(rng *rand.Rand, w, h int) *Frame {
	f := New(w, h, RGB)
	r0, g0, b0 := rng.Intn(200), rng.Intn(200), rng.Intn(200)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			f.SetRGB(x, y, clampU8(r0+x), clampU8(g0+y), clampU8(b0+(x+y)/2))
		}
	}
	return f
}

func TestConvertSameFormatIsCopy(t *testing.T) {
	f := New(4, 4, RGB)
	g := f.Convert(RGB)
	g.Data[0] = 77
	if f.Data[0] == 77 {
		t.Error("Convert to same format must return an independent copy")
	}
}

func TestConvertOddDimensionsToPlanar(t *testing.T) {
	f := New(5, 5, RGB)
	g := f.Convert(YUV420)
	if g.Width != 4 || g.Height != 4 {
		t.Errorf("odd rgb -> yuv420 should crop to even, got %dx%d", g.Width, g.Height)
	}
	h := f.Convert(YUV422)
	if h.Width != 4 || h.Height != 5 {
		t.Errorf("odd rgb -> yuv422 got %dx%d, want 4x5", h.Width, h.Height)
	}
}

func TestRectOps(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	b := Rect{5, 5, 15, 15}
	got := a.Intersect(b)
	want := Rect{5, 5, 10, 10}
	if got != want {
		t.Errorf("intersect = %+v, want %+v", got, want)
	}
	if got.Area() != 25 {
		t.Errorf("area = %d, want 25", got.Area())
	}
	if !a.Contains(Rect{1, 1, 9, 9}) {
		t.Error("contains failed")
	}
	if a.Contains(b) {
		t.Error("contains should fail for partial overlap")
	}
	empty := a.Intersect(Rect{20, 20, 30, 30})
	if !empty.Empty() || empty.Area() != 0 {
		t.Errorf("disjoint intersect should be empty, got %+v", empty)
	}
	if !a.In(0, 0) || a.In(10, 10) {
		t.Error("In boundary semantics wrong")
	}
}

func TestCropRGB(t *testing.T) {
	f := New(8, 8, RGB)
	f.SetRGB(3, 3, 255, 0, 0)
	c, err := f.Crop(Rect{2, 2, 6, 6})
	if err != nil {
		t.Fatal(err)
	}
	if c.Width != 4 || c.Height != 4 {
		t.Fatalf("crop dims %dx%d", c.Width, c.Height)
	}
	r, _, _ := c.AtRGB(1, 1)
	if r != 255 {
		t.Errorf("cropped pixel r=%d, want 255", r)
	}
}

func TestCropClipsToBounds(t *testing.T) {
	f := New(8, 8, Gray)
	c, err := f.Crop(Rect{4, 4, 100, 100})
	if err != nil {
		t.Fatal(err)
	}
	if c.Width != 4 || c.Height != 4 {
		t.Errorf("clipped crop dims %dx%d, want 4x4", c.Width, c.Height)
	}
	if _, err := f.Crop(Rect{100, 100, 200, 200}); err == nil {
		t.Error("fully out-of-bounds crop should error")
	}
}

func TestCropPlanarGoesThroughRGB(t *testing.T) {
	f := New(8, 8, YUV420)
	c, err := f.Crop(Rect{1, 1, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if c.Format != RGB {
		t.Errorf("planar crop should produce rgb, got %v", c.Format)
	}
}

func TestPasteRoundTrip(t *testing.T) {
	dst := New(8, 8, RGB)
	src := New(3, 3, RGB)
	for i := range src.Data {
		src.Data[i] = 200
	}
	if err := dst.Paste(src, 2, 2); err != nil {
		t.Fatal(err)
	}
	r, _, _ := dst.AtRGB(3, 3)
	if r != 200 {
		t.Errorf("paste center r=%d", r)
	}
	r, _, _ = dst.AtRGB(1, 1)
	if r != 0 {
		t.Errorf("paste leaked outside region r=%d", r)
	}
}

func TestPasteClips(t *testing.T) {
	dst := New(4, 4, Gray)
	src := New(4, 4, Gray)
	for i := range src.Data {
		src.Data[i] = 9
	}
	if err := dst.Paste(src, -2, -2); err != nil {
		t.Fatal(err)
	}
	if dst.Data[0] != 9 {
		t.Error("clipped paste missing top-left content")
	}
	if err := dst.Paste(src, 100, 100); err != nil {
		t.Fatal(err) // fully clipped paste is a no-op, not an error
	}
}

func TestPasteFormatMismatch(t *testing.T) {
	dst := New(4, 4, RGB)
	src := New(2, 2, Gray)
	if err := dst.Paste(src, 0, 0); err == nil {
		t.Error("expected format mismatch error")
	}
}

func TestResizeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := randomFrame(rng, 16, 12, RGB)
	g := f.Resize(16, 12)
	for i := range f.Data {
		if f.Data[i] != g.Data[i] {
			t.Fatal("identity resize changed data")
		}
	}
	g.Data[0] ^= 1
	if f.Data[0] == g.Data[0] {
		t.Error("identity resize must return a copy")
	}
}

func TestResizeConstantStaysConstant(t *testing.T) {
	f := New(16, 16, RGB)
	for i := range f.Data {
		f.Data[i] = 123
	}
	g := f.Resize(7, 5)
	for i := range g.Data {
		if g.Data[i] != 123 {
			t.Fatalf("resize of constant frame produced %d at %d", g.Data[i], i)
		}
	}

	// A constant YUV420 frame (a different value per plane) stays constant
	// in every plane, shrinking and growing.
	yuv := New(32, 18, YUV420)
	y, u, v := yuv.planes()
	for p, plane := range [][]byte{y, u, v} {
		for i := range plane {
			plane[i] = byte(40 + 70*p)
		}
	}
	for _, dim := range [][2]int{{10, 6}, {64, 40}} {
		g := yuv.Resize(dim[0], dim[1])
		gy, gu, gv := g.planes()
		for p, plane := range [][]byte{gy, gu, gv} {
			for i, b := range plane {
				if b != byte(40+70*p) {
					t.Fatalf("yuv420 %dx%d: plane %d is %d at %d, want %d", dim[0], dim[1], p, b, i, 40+70*p)
				}
			}
		}
	}
}

func TestResizeDownUpIsClose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := randomSmooth(rng, 64, 64)
	g := f.Resize(32, 32).Resize(64, 64)
	var sum float64
	for i := range f.Data {
		d := float64(int(f.Data[i]) - int(g.Data[i]))
		sum += d * d
	}
	if mse := sum / float64(len(f.Data)); mse > 16 {
		t.Errorf("down/up MSE %.2f too high for smooth content", mse)
	}
}

func TestResizePlanarPreservesFormat(t *testing.T) {
	f := New(16, 16, YUV420)
	g := f.Resize(8, 8)
	if g.Format != YUV420 || g.Width != 8 || g.Height != 8 {
		t.Errorf("got %v %dx%d", g.Format, g.Width, g.Height)
	}
}

func TestResizePropertyDimensions(t *testing.T) {
	// Property: output dimensions always match the request, in every
	// format. A planar frame keeps its format when the target fits it and
	// comes back as RGB when it does not (odd targets).
	for _, format := range []PixelFormat{RGB, YUV420, YUV422, Gray} {
		prop := func(w8, h8, tw8, th8 uint8) bool {
			w, h := int(w8%30)+2, int(h8%30)+2
			if format == YUV420 || format == YUV422 {
				w &^= 1
			}
			if format == YUV420 {
				h &^= 1
			}
			tw, th := int(tw8%30)+1, int(th8%30)+1
			g := New(w, h, format).Resize(tw, th)
			want := format
			if format.Validate(tw, th) != nil {
				want = RGB
			}
			return g.Width == tw && g.Height == th && g.Format == want && len(g.Data) == want.Size(tw, th)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%v: %v", format, err)
		}
	}
}

func TestCropPropertyContainedValues(t *testing.T) {
	// Property: every pixel in a crop equals the source pixel it came from.
	rng := rand.New(rand.NewSource(4))
	prop := func(x0, y0, dx, dy uint8) bool {
		f := randomFrame(rng, 20, 20, Gray)
		r := Rect{int(x0 % 15), int(y0 % 15), int(x0%15) + int(dx%5) + 1, int(y0%15) + int(dy%5) + 1}
		c, err := f.Crop(r)
		if err != nil {
			return false
		}
		for y := 0; y < c.Height; y++ {
			for x := 0; x < c.Width; x++ {
				if c.Data[y*c.Width+x] != f.Data[(y+r.Y0)*20+(x+r.X0)] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
