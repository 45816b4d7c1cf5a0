// Package frame provides the raw video frame representation used throughout
// VSS: pixel formats, plane layout, format conversion, resampling, and
// region-of-interest cropping.
//
// A Frame is a single decoded picture. VSS stores frames on disk inside GOP
// containers (see internal/codec and internal/storage); this package only
// concerns itself with in-memory pixel data.
package frame

import (
	"fmt"
)

// PixelFormat identifies the physical layout of pixel data within a frame.
// These correspond to the physical parameter l in the VSS API (Figure 1 of
// the paper): e.g. yuv420, yuv422.
type PixelFormat uint8

const (
	// RGB is 8-bit interleaved red/green/blue, 3 bytes per pixel.
	RGB PixelFormat = iota
	// YUV420 is planar 8-bit Y'CbCr with 2x2 chroma subsampling
	// (1.5 bytes per pixel). Width and height must be even.
	YUV420
	// YUV422 is planar 8-bit Y'CbCr with 2x1 chroma subsampling
	// (2 bytes per pixel). Width must be even.
	YUV422
	// Gray is a single 8-bit luma plane (1 byte per pixel).
	Gray
)

// String returns the conventional short name for the format.
func (f PixelFormat) String() string {
	switch f {
	case RGB:
		return "rgb"
	case YUV420:
		return "yuv420"
	case YUV422:
		return "yuv422"
	case Gray:
		return "gray"
	default:
		return fmt.Sprintf("PixelFormat(%d)", uint8(f))
	}
}

// ParsePixelFormat converts a format name (as produced by String) back into
// a PixelFormat.
func ParsePixelFormat(s string) (PixelFormat, error) {
	switch s {
	case "rgb":
		return RGB, nil
	case "yuv420":
		return YUV420, nil
	case "yuv422":
		return YUV422, nil
	case "gray":
		return Gray, nil
	default:
		return 0, fmt.Errorf("frame: unknown pixel format %q", s)
	}
}

// BytesPerPixelNum and BytesPerPixelDen express the storage cost of one
// pixel in this format as the ratio num/den (e.g. YUV420 is 3/2).
func (f PixelFormat) bytesPerPixel() (num, den int) {
	switch f {
	case RGB:
		return 3, 1
	case YUV420:
		return 3, 2
	case YUV422:
		return 2, 1
	case Gray:
		return 1, 1
	default:
		return 0, 1
	}
}

// Size returns the number of bytes required to store a w x h frame in this
// format.
func (f PixelFormat) Size(w, h int) int {
	num, den := f.bytesPerPixel()
	return w * h * num / den
}

// Validate reports whether a frame of dimensions w x h is representable in
// this format (chroma subsampling constrains parity).
func (f PixelFormat) Validate(w, h int) error {
	if w <= 0 || h <= 0 {
		return fmt.Errorf("frame: invalid dimensions %dx%d", w, h)
	}
	switch f {
	case YUV420:
		if w%2 != 0 || h%2 != 0 {
			return fmt.Errorf("frame: yuv420 requires even dimensions, got %dx%d", w, h)
		}
	case YUV422:
		if w%2 != 0 {
			return fmt.Errorf("frame: yuv422 requires even width, got %d", w)
		}
	}
	return nil
}

// Frame is a single decoded video frame. Data is laid out according to
// Format:
//
//	RGB:    interleaved r,g,b triples, row major, w*h*3 bytes
//	YUV420: Y plane (w*h), then U plane (w/2*h/2), then V plane (w/2*h/2)
//	YUV422: Y plane (w*h), then U plane (w/2*h), then V plane (w/2*h)
//	Gray:   single plane, w*h bytes
type Frame struct {
	Width  int
	Height int
	Format PixelFormat
	Data   []byte
}

// New allocates a zeroed frame of the given dimensions and format. It
// panics if the dimensions are invalid for the format; callers that accept
// external input should call Validate first.
func New(w, h int, format PixelFormat) *Frame {
	if err := format.Validate(w, h); err != nil {
		panic(err)
	}
	return &Frame{Width: w, Height: h, Format: format, Data: make([]byte, format.Size(w, h))}
}

// Clone returns a deep copy of the frame.
func (f *Frame) Clone() *Frame {
	d := make([]byte, len(f.Data))
	copy(d, f.Data)
	return &Frame{Width: f.Width, Height: f.Height, Format: f.Format, Data: d}
}

// Pixels returns the number of pixels in the frame; the paper's cost model
// scales transcode cost by this quantity (|f| in c_t = α·|f|).
func (f *Frame) Pixels() int { return f.Width * f.Height }

// chromaDims returns the dimensions of each chroma plane of a w x h frame
// in a planar format.
func (f PixelFormat) chromaDims(w, h int) (cw, ch int) {
	if f == YUV420 {
		return w / 2, h / 2
	}
	return w / 2, h
}

// planes returns the byte offsets of the Y/U/V planes for planar formats.
func (f *Frame) planes() (y, u, v []byte) {
	switch f.Format {
	case YUV420, YUV422:
		ySize := f.Width * f.Height
		cw, ch := f.Format.chromaDims(f.Width, f.Height)
		cSize := cw * ch
		return f.Data[:ySize], f.Data[ySize : ySize+cSize], f.Data[ySize+cSize : ySize+2*cSize]
	case Gray:
		return f.Data, nil, nil
	default:
		return nil, nil, nil
	}
}

// SetRGB sets the pixel at (x, y) for an RGB frame. It is a convenience for
// generators and tests; bulk operations should index Data directly.
func (f *Frame) SetRGB(x, y int, r, g, b byte) {
	i := (y*f.Width + x) * 3
	f.Data[i], f.Data[i+1], f.Data[i+2] = r, g, b
}

// AtRGB returns the pixel at (x, y) for an RGB frame.
func (f *Frame) AtRGB(x, y int) (r, g, b byte) {
	i := (y*f.Width + x) * 3
	return f.Data[i], f.Data[i+1], f.Data[i+2]
}

// Rect is an axis-aligned pixel rectangle [X0,X1) x [Y0,Y1) used to express
// regions of interest (the spatial parameter S in the VSS API).
type Rect struct {
	X0, Y0, X1, Y1 int
}

// FullRect returns the rectangle covering an entire w x h frame.
func FullRect(w, h int) Rect { return Rect{0, 0, w, h} }

// Dx and Dy return the rectangle's width and height.
func (r Rect) Dx() int { return r.X1 - r.X0 }

// Dy returns the rectangle's height.
func (r Rect) Dy() int { return r.Y1 - r.Y0 }

// Empty reports whether the rectangle contains no pixels.
func (r Rect) Empty() bool { return r.X1 <= r.X0 || r.Y1 <= r.Y0 }

// Area returns the number of pixels covered by the rectangle.
func (r Rect) Area() int {
	if r.Empty() {
		return 0
	}
	return r.Dx() * r.Dy()
}

// Intersect returns the intersection of two rectangles (possibly empty).
func (r Rect) Intersect(o Rect) Rect {
	out := Rect{max(r.X0, o.X0), max(r.Y0, o.Y0), min(r.X1, o.X1), min(r.Y1, o.Y1)}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Contains reports whether o lies entirely within r.
func (r Rect) Contains(o Rect) bool {
	return r.X0 <= o.X0 && r.Y0 <= o.Y0 && r.X1 >= o.X1 && r.Y1 >= o.Y1
}

// In reports whether the point (x, y) lies within the rectangle.
func (r Rect) In(x, y int) bool {
	return x >= r.X0 && x < r.X1 && y >= r.Y0 && y < r.Y1
}

// Crop extracts the sub-frame covered by r. The source frame must be RGB or
// Gray (VSS converts planar formats before cropping to avoid chroma-parity
// complications, matching how ROI reads are executed on decoded frames).
func (f *Frame) Crop(r Rect) (*Frame, error) {
	r = r.Intersect(FullRect(f.Width, f.Height))
	if r.Empty() {
		return nil, fmt.Errorf("frame: empty crop %+v of %dx%d frame", r, f.Width, f.Height)
	}
	switch f.Format {
	case RGB:
		out := New(r.Dx(), r.Dy(), RGB)
		for y := r.Y0; y < r.Y1; y++ {
			src := (y*f.Width + r.X0) * 3
			dst := (y - r.Y0) * r.Dx() * 3
			copy(out.Data[dst:dst+r.Dx()*3], f.Data[src:src+r.Dx()*3])
		}
		return out, nil
	case Gray:
		out := New(r.Dx(), r.Dy(), Gray)
		for y := r.Y0; y < r.Y1; y++ {
			src := y*f.Width + r.X0
			dst := (y - r.Y0) * r.Dx()
			copy(out.Data[dst:dst+r.Dx()], f.Data[src:src+r.Dx()])
		}
		return out, nil
	default:
		rgb := f.Convert(RGB)
		return rgb.Crop(r)
	}
}

// Paste copies src into f at offset (x0, y0), clipping to f's bounds. Both
// frames must share the same format and it must be RGB or Gray.
func (f *Frame) Paste(src *Frame, x0, y0 int) error {
	if f.Format != src.Format {
		return fmt.Errorf("frame: paste format mismatch %v != %v", f.Format, src.Format)
	}
	var bpp int
	switch f.Format {
	case RGB:
		bpp = 3
	case Gray:
		bpp = 1
	default:
		return fmt.Errorf("frame: paste unsupported for %v", f.Format)
	}
	for y := 0; y < src.Height; y++ {
		ty := y0 + y
		if ty < 0 || ty >= f.Height {
			continue
		}
		sx0, tx0 := 0, x0
		if tx0 < 0 {
			sx0, tx0 = -tx0, 0
		}
		n := src.Width - sx0
		if tx0+n > f.Width {
			n = f.Width - tx0
		}
		if n <= 0 {
			continue
		}
		si := (y*src.Width + sx0) * bpp
		di := (ty*f.Width + tx0) * bpp
		copy(f.Data[di:di+n*bpp], src.Data[si:si+n*bpp])
	}
	return nil
}

// clampU8 saturates v to a byte. In-range values, nearly all of them, take
// the single unsigned compare.
func clampU8(v int) byte {
	if uint(v) <= 255 {
		return byte(v)
	}
	if v < 0 {
		return 0
	}
	return 255
}
