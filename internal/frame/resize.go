package frame

// Resize returns the frame resampled to tw x th using bilinear
// interpolation. Resampling is one of the two quality-loss mechanisms VSS
// tracks (the other is lossy compression); callers record the resulting MSE
// via internal/quality. The result never shares Data with f.
//
// Every format is resampled in its own layout: RGB and Gray as one
// interleaved plane, YUV420 and YUV422 plane by plane, each chroma plane at
// its subsampled size. A planar frame whose format cannot represent tw x th
// (an odd width, or an odd YUV420 height) is converted to RGB and the RGB
// frame is resampled and returned instead.
func (f *Frame) Resize(tw, th int) *Frame {
	if tw == f.Width && th == f.Height {
		return f.Clone()
	}
	switch f.Format {
	case RGB, Gray:
		bpp := 1
		if f.Format == RGB {
			bpp = 3
		}
		out := New(tw, th, f.Format)
		resizePlane(f.Data, f.Width, f.Height, out.Data, tw, th, bpp)
		return out
	}
	if f.Format.Validate(tw, th) != nil {
		return f.Convert(RGB).Resize(tw, th)
	}
	out := New(tw, th, f.Format)
	sy, su, sv := f.planes()
	dy, du, dv := out.planes()
	resizePlane(sy, f.Width, f.Height, dy, tw, th, 1)
	cw, ch := f.Format.chromaDims(f.Width, f.Height)
	tcw, tch := f.Format.chromaDims(tw, th)
	resizePlane(su, cw, ch, du, tcw, tch, 1)
	resizePlane(sv, cw, ch, dv, tcw, tch, 1)
	return out
}

// resizeShift is the fraction width of the kernel's 16.16 fixed-point
// coordinates, which keep the inner loop free of float conversions.
const resizeShift = 16

// resizeTap is one output column's source taps: the byte offsets of the two
// source pixels it interpolates between and the weight of the second.
type resizeTap struct{ x0, x1, wx int }

// resizePlane bilinearly resamples the w x h plane src of bpp-byte
// interleaved pixels into the tw x th plane dst. The column taps depend only
// on the widths, so they are computed once per call, not once per pixel and
// channel.
func resizePlane(src []byte, w, h int, dst []byte, tw, th, bpp int) {
	const one = 1 << resizeShift
	// Scale factors map output pixel centers onto source coordinates.
	sx := ((w - 1) << resizeShift) / max(tw-1, 1)
	sy := ((h - 1) << resizeShift) / max(th-1, 1)
	taps := make([]resizeTap, tw)
	for ox := range taps {
		fx := ox * sx
		x0 := fx >> resizeShift
		taps[ox] = resizeTap{x0 * bpp, min(x0+1, w-1) * bpp, fx & (one - 1)}
	}
	stride, outStride := w*bpp, tw*bpp
	for oy := range th {
		fy := oy * sy
		y0 := fy >> resizeShift
		row0 := src[y0*stride:][:stride]
		row1 := src[min(y0+1, h-1)*stride:][:stride]
		resizeRow(row0, row1, dst[oy*outStride:][:outStride], taps, fy&(one-1), bpp)
	}
}

// resizeRow fills one output row from the two source rows around it; wy is
// the weight of row1.
func resizeRow(row0, row1, out []byte, taps []resizeTap, wy, bpp int) {
	if bpp == 1 {
		out = out[:len(taps)]
		for ox, t := range taps {
			out[ox] = bilerp(row0[t.x0], row0[t.x1], row1[t.x0], row1[t.x1], t.wx, wy)
		}
		return
	}
	for ox, t := range taps {
		o := out[ox*bpp:][:bpp]
		for c := range o {
			o[c] = bilerp(row0[t.x0+c], row0[t.x1+c], row1[t.x0+c], row1[t.x1+c], t.wx, wy)
		}
	}
}

// bilerp interpolates between p00 and p01 (top) and p10 and p11 (bottom)
// with fixed-point weights wx across and wy down. Each step stays between
// its two inputs, so the result is always a byte.
func bilerp(p00, p01, p10, p11 byte, wx, wy int) byte {
	top := int(p00) + ((int(p01)-int(p00))*wx)>>resizeShift
	bot := int(p10) + ((int(p11)-int(p10))*wx)>>resizeShift
	return byte(top + ((bot-top)*wy)>>resizeShift)
}
