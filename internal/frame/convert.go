package frame

// Color conversion uses the BT.601 studio-swing matrix, the same transform
// family used by the codecs VSS simulates. Conversions between subsampled
// chroma formats pass through per-pixel YUV with box filtering on the chroma
// planes.

// rgbToYUV converts a single pixel.
func rgbToYUV(r, g, b byte) (y, u, v byte) {
	ri, gi, bi := int(r), int(g), int(b)
	yy := (77*ri + 150*gi + 29*bi) >> 8
	uu := ((-43*ri - 85*gi + 128*bi) >> 8) + 128
	vv := ((128*ri - 107*gi - 21*bi) >> 8) + 128
	return clampU8(yy), clampU8(uu), clampU8(vv)
}

// yuvToRGB converts a single pixel.
func yuvToRGB(y, u, v byte) (r, g, b byte) {
	yi := int(y)
	ui := int(u) - 128
	vi := int(v) - 128
	rr := yi + ((359 * vi) >> 8)
	gg := yi - ((88*ui + 183*vi) >> 8)
	bb := yi + ((454 * ui) >> 8)
	return clampU8(rr), clampU8(gg), clampU8(bb)
}

// Convert returns the frame converted to the target pixel format. The
// original frame is unmodified; if the format already matches, a deep copy
// is returned so callers may mutate the result freely.
func (f *Frame) Convert(target PixelFormat) *Frame {
	return f.ConvertInto(nil, target)
}

// ConvertInto is Convert with caller-provided destination storage: when
// dst's Data has enough capacity for the converted frame, it is reshaped
// and overwritten instead of allocating. Encode workers use it to recycle
// one conversion scratch frame across GOPs. dst may be nil; f must not
// share storage with dst. Multi-hop conversions (gray/planar -> non-RGB)
// reuse dst for the final hop only.
func (f *Frame) ConvertInto(dst *Frame, target PixelFormat) *Frame {
	if f.Format == target {
		out := reshape(dst, f.Width, f.Height, target)
		copy(out.Data, f.Data)
		return out
	}
	switch f.Format {
	case RGB:
		switch target {
		case Gray:
			return f.rgbToGray(dst)
		default:
			return f.rgbToPlanar(target, dst)
		}
	case Gray:
		// Promote gray to RGB first, then onward if needed.
		if target == RGB {
			return f.grayToRGB(dst)
		}
		return f.grayToRGB(nil).ConvertInto(dst, target)
	default: // planar YUV source
		if target == RGB {
			return f.planarToRGB(dst)
		}
		return f.planarToRGB(nil).ConvertInto(dst, target)
	}
}

// reshape returns dst re-dimensioned for a w x h frame in format when its
// backing array is large enough, or a fresh frame otherwise.
func reshape(dst *Frame, w, h int, format PixelFormat) *Frame {
	need := format.Size(w, h)
	if dst == nil || cap(dst.Data) < need {
		return New(w, h, format)
	}
	dst.Width, dst.Height, dst.Format = w, h, format
	dst.Data = dst.Data[:need]
	return dst
}

func (f *Frame) rgbToGray(dst *Frame) *Frame {
	out := reshape(dst, f.Width, f.Height, Gray)
	for i, j := 0, 0; i < len(f.Data); i, j = i+3, j+1 {
		y, _, _ := rgbToYUV(f.Data[i], f.Data[i+1], f.Data[i+2])
		out.Data[j] = y
	}
	return out
}

func (f *Frame) grayToRGB(dst *Frame) *Frame {
	out := reshape(dst, f.Width, f.Height, RGB)
	for i, j := 0, 0; i < len(f.Data); i, j = i+1, j+3 {
		out.Data[j], out.Data[j+1], out.Data[j+2] = f.Data[i], f.Data[i], f.Data[i]
	}
	return out
}

// rgbToPlanar converts RGB to YUV420 or YUV422. Each chroma sample is the
// box-filtered mean over the 2x2 (or 2x1) pixel block it covers, so the
// conversion walks one chroma row at a time over the row slices feeding it:
// two source rows for YUV420, one for YUV422. Dimensions are even after the
// crop below, so every block is full and the filter divides by a constant.
func (f *Frame) rgbToPlanar(target PixelFormat, dst *Frame) *Frame {
	// Frames with odd dimensions cannot be represented in subsampled
	// formats; pad by cropping to even dimensions first.
	w, h := f.Width, f.Height
	if target == YUV420 && (w%2 != 0 || h%2 != 0) {
		c, _ := f.Crop(Rect{0, 0, w &^ 1, h &^ 1})
		return c.rgbToPlanar(target, dst)
	}
	if target == YUV422 && w%2 != 0 {
		c, _ := f.Crop(Rect{0, 0, w &^ 1, h})
		return c.rgbToPlanar(target, dst)
	}
	out := reshape(dst, w, h, target)
	yp, up, vp := out.planes()
	cw := w / 2
	rgbRow := func(y int) []byte { return f.Data[y*w*3:][:w*3] }
	if target == YUV422 {
		for y := 0; y < h; y++ {
			rgbRowToYUV422(rgbRow(y), yp[y*w:][:w], up[y*cw:][:cw], vp[y*cw:][:cw])
		}
		return out
	}
	for cy := 0; cy < h/2; cy++ {
		y := 2 * cy
		rgbRowsToYUV420(rgbRow(y), rgbRow(y+1), yp[y*w:][:w], yp[(y+1)*w:][:w], up[cy*cw:][:cw], vp[cy*cw:][:cw])
	}
	return out
}

// yuvOfR, yuvOfG and yuvOfB hold each channel value's contribution to Y, U
// and V, packed into three 21-bit fields of one word (Y lowest), so a pixel
// costs three lookups and two adds instead of nine multiplies. Negative
// weights are stored against a bias (-43r as 43*(255-r)) so no field ever
// borrows from its neighbour; the biases add up to the +128 chroma offset
// pre-scaled by 256, which turns rgbToYUV's "floor shift, then add 128" into
// one shift. Each field of a sum is below 2^16, and after the shift in
// [0, 255]: rgbToYUV's clamps never fire (the conversion tests check all
// 2^24 inputs).
var yuvOfR, yuvOfG, yuvOfB [256]uint64

const (
	yuvFieldU = 21
	yuvFieldV = 42
	yuvFields = 0xFF | 0xFF<<yuvFieldU | 0xFF<<yuvFieldV
)

func init() {
	for i := range uint64(256) {
		n := 255 - i
		yuvOfR[i] = 77*i | 43*n<<yuvFieldU | 128*i<<yuvFieldV
		yuvOfG[i] = 150*i | 85*n<<yuvFieldU | 107*n<<yuvFieldV
		yuvOfB[i] = 29*i | (128*i+128)<<yuvFieldU | (21*n+128)<<yuvFieldV
	}
}

// packedYUV converts the pixel at p[0:3] to its Y, U and V bytes in the
// three fields of one word. Words of several pixels may be added: the
// fields have 13 bits of headroom.
func packedYUV(p []byte) uint64 {
	return (yuvOfR[p[0]] + yuvOfG[p[1]] + yuvOfB[p[2]]) >> 8 & yuvFields
}

// rgbRowsToYUV420 converts two RGB rows into two luma rows and the one
// chroma row they share, each chroma sample the mean over its 2x2 block.
func rgbRowsToYUV420(rgb0, rgb1, y0, y1, u, v []byte) {
	v = v[:len(u)]
	for cx := range u {
		p, q := rgb0[6*cx:][:6], rgb1[6*cx:][:6]
		ya, yb := y0[2*cx:][:2], y1[2*cx:][:2]
		a, b, c, d := packedYUV(p), packedYUV(p[3:]), packedYUV(q), packedYUV(q[3:])
		ya[0], ya[1], yb[0], yb[1] = byte(a), byte(b), byte(c), byte(d)
		sum := a + b + c + d
		u[cx] = byte(sum >> (yuvFieldU + 2))
		v[cx] = byte(sum >> (yuvFieldV + 2))
	}
}

// rgbRowToYUV422 converts one RGB row into its luma and chroma rows, each
// chroma sample the mean over its 2x1 block.
func rgbRowToYUV422(rgb, y, u, v []byte) {
	v = v[:len(u)]
	for cx := range u {
		p, ya := rgb[6*cx:][:6], y[2*cx:][:2]
		a, b := packedYUV(p), packedYUV(p[3:])
		ya[0], ya[1] = byte(a), byte(b)
		sum := a + b
		u[cx] = byte(sum >> (yuvFieldU + 1))
		v[cx] = byte(sum >> (yuvFieldV + 1))
	}
}

// planarToRGB converts YUV420 or YUV422 to RGB one luma row at a time. The
// chroma contributions to R, G and B depend only on (u, v), which the two
// luma samples of a pair share, so they are computed once per pair; the
// arithmetic per sample is exactly yuvToRGB's.
func (f *Frame) planarToRGB(dst *Frame) *Frame {
	out := reshape(dst, f.Width, f.Height, RGB)
	yp, up, vp := f.planes()
	w := f.Width
	cw := w / 2
	for y := 0; y < f.Height; y++ {
		cy := y
		if f.Format == YUV420 {
			cy = y / 2
		}
		yuvRowToRGB(yp[y*w:][:w], up[cy*cw:][:cw], vp[cy*cw:][:cw], out.Data[y*w*3:][:w*3])
	}
	return out
}

// yuvRowToRGB converts one luma row and the chroma row covering it.
func yuvRowToRGB(y, u, v, rgb []byte) {
	v = v[:len(u)]
	for cx := range u {
		ui, vi := int(u[cx])-128, int(v[cx])-128
		rc := (359 * vi) >> 8
		gc := (88*ui + 183*vi) >> 8
		bc := (454 * ui) >> 8
		ya, o := y[2*cx:][:2], rgb[6*cx:][:6]
		a, b := int(ya[0]), int(ya[1])
		o[0], o[1], o[2] = clampU8(a+rc), clampU8(a-gc), clampU8(a+bc)
		o[3], o[4], o[5] = clampU8(b+rc), clampU8(b-gc), clampU8(b+bc)
	}
}
