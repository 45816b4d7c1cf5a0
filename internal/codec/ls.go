package codec

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/frame"
)

// lsCodec is the "ls" codec: a JPEG-LS-style (LOCO-I) intra-only coder
// built for the deferred lossless tier and fast near-lossless reads. Each
// plane is coded sample-by-sample with the MED predictor (median edge
// detector over the left/top/top-left neighbors), a run mode that covers
// flat regions in a handful of bits, and Golomb-Rice residual coding —
// no flate anywhere on the path, which is what buys the >=2x encode and
// decode throughput over the flate-based lossless tier that the `codec`
// bench experiment pins.
//
// The Rice parameter adapts backward per row rather than per sample:
// both sides derive row y's k from the residual magnitudes they already
// (de)coded in row y-1, so no parameter bits hit the stream and the
// decoder's per-sample entropy cost is one trailing-zeros count plus
// shifts through a 64-bit accumulator. MED itself is branchless via the
// median identity med(a, b, a+b-c) = clamp(a+b-c, min(a,b), max(a,b)).
//
// The quality dial maps onto JPEG-LS's NEAR parameter: residuals are
// quantized to an error bound of ±NEAR per sample, with NEAR =
// quantizer(quality)/2, so quality >= 97 is NEAR=0 and bit-exact. That
// keeps ExpectedMSE's Q²/12 estimate valid (uniform error on [-NEAR,NEAR]
// has MSE NEAR²/3 ≈ Q²/12).
//
// Unlike the predictive profiles, ls codes frames in their NATIVE pixel
// format (RGB is deinterleaved into three full-resolution planes, the
// planar formats are coded plane by plane), so a raw cached view of any
// format round-trips bit-exactly at NEAR=0 — the property the deferred
// rewrite tier depends on. Every frame is an I-frame: zero look-back
// cost, and DecodeRange skips frames outside the requested window
// entirely.
type lsCodec struct{}

func init() { Register(lsCodec{}) }

func (lsCodec) Name() ID { return LS }

// lsNear maps the quality dial onto the near-lossless error bound.
func lsNear(quality int) int { return quantizer(quality) / 2 }

func (lsCodec) Lossless(quality int) bool {
	if quality < 1 {
		quality = 1
	}
	if quality > 100 {
		quality = 100
	}
	return lsNear(quality) == 0
}

const (
	// lsKDefault seeds the Rice parameter for each plane's first row.
	lsKDefault = 4
	// lsKMax caps the adaptive Rice parameter.
	lsKMax = 14
	// lsEscapeQ bounds the unary quotient; larger residuals escape to a
	// raw magnitude (zigzag of a byte residual is < 512, so 9 bits).
	lsEscapeQ = 24
	// lsEscBits is the escape payload width.
	lsEscBits = 9
	// lsMaxGamma bounds run-length gamma codes (runs never exceed a row).
	lsMaxGamma = 20
)

// lsNextK derives the next row's Rice parameter from the previous row's
// coded magnitudes: the smallest k with w<<k >= msum, i.e. k ≈ log2 of
// the mean magnitude over the row, the Rice-optimal choice for geometric
// residuals. Run-covered samples count in the denominator (both sides
// know w; no per-sample counter on the hot loop), which only biases k
// down on run-dominated rows where residuals are tiny anyway.
func lsNextK(w uint32, msum uint32) uint {
	k := uint(0)
	for w<<k < msum && k < lsKMax {
		k++
	}
	return k
}

// lsQuantize maps a residual onto its near-lossless index: the decoder
// reconstructs pred + index*(2*near+1), within ±near of the original.
func lsQuantize(r, near int) int {
	if near == 0 {
		return r
	}
	t := 2*near + 1
	if r > 0 {
		return (r + near) / t
	}
	return -((near - r) / t)
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// lsWork is one worker's coding state: the bitstream accumulator, a
// reconstruction plane (NEAR>0 predicts from reconstructed samples), and
// deinterleave buffers for RGB input.
type lsWork struct {
	bw    bitWriter
	rec   []byte
	chans [3][]byte
}

// lsScratch is the per-Encoder scratch: one lsWork per encode worker.
type lsScratch struct {
	ws []lsWork
}

// lsWorkers picks the fan-out for a GOP: frames are independent
// payloads, so each can be coded by its own goroutine with byte-identical
// output regardless of worker count. VSL1's single flate stream has no
// such seam — this is where the lossless tier's decode gap opens on
// multicore hosts. One worker (or one frame) stays fully inline.
func lsWorkers(frames int) int {
	w := runtime.GOMAXPROCS(0)
	if w > frames {
		w = frames
	}
	if w < 1 {
		w = 1
	}
	return w
}

// lsParallel runs fn over [0, n) across the given number of workers,
// returning the first error. workers <= 1 runs inline.
func lsParallel(n, workers int, fn func(i, worker int) error) error {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i, 0); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		first   error
	)
	next.Store(-1)
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if err := fn(i, wkr); err != nil {
					errOnce.Do(func() { first = err })
					return
				}
			}
		}(wkr)
	}
	wg.Wait()
	return first
}

func (lsCodec) EncodeGOP(e *Encoder, frames []*frame.Frame, quality int) ([]byte, Stats, error) {
	f0 := frames[0]
	if err := f0.Format.Validate(f0.Width, f0.Height); err != nil {
		return nil, Stats{}, fmt.Errorf("codec: ls: %w", err)
	}
	dims, interleaved := lsPlaneDims(f0.Format, f0.Width, f0.Height)
	if dims == nil {
		return nil, Stats{}, fmt.Errorf("codec: ls: unsupported pixel format %v", f0.Format)
	}
	sc := e.Scratch(LS, func() any { return new(lsScratch) }).(*lsScratch)
	near := lsNear(quality)
	workers := lsWorkers(len(frames))
	if len(sc.ws) < workers {
		sc.ws = make([]lsWork, workers)
	}

	types := make([]FrameType, len(frames))
	payloads := make([][]byte, len(frames))
	st := Stats{IFrames: len(frames)}
	for i := range types {
		types[i] = IFrame
	}
	err := lsParallel(len(frames), workers, func(i, wkr int) error {
		wk := &sc.ws[wkr]
		f := frames[i]
		wk.bw.reset()
		if interleaved {
			lsDeinterleave(f.Data, wk)
			for p := range dims {
				lsEncodePlane(&wk.bw, wk.chans[p], dims[p].w, dims[p].h, near, wk)
			}
		} else {
			off := 0
			for p := range dims {
				n := dims[p].w * dims[p].h
				lsEncodePlane(&wk.bw, f.Data[off:off+n], dims[p].w, dims[p].h, near, wk)
				off += n
			}
		}
		payloads[i] = wk.bw.finish()
		return nil
	})
	if err != nil {
		return nil, Stats{}, err
	}
	data := writeContainer(LS, false, f0.Format, quality, f0.Width, f0.Height, types, payloads)
	st.Bytes = len(data)
	st.BitsPerPixel = float64(len(data)) * 8 / float64(f0.Width*f0.Height*len(frames))
	return data, st, nil
}

func (lsCodec) DecodeRange(data []byte, hd Header, from, to int) ([]*frame.Frame, error) {
	payloads, err := framePayloads(data, hd)
	if err != nil {
		return nil, err
	}
	if err := hd.PixFmt.Validate(hd.Width, hd.Height); err != nil {
		return nil, fmt.Errorf("codec: ls: %w", err)
	}
	dims, interleaved := lsPlaneDims(hd.PixFmt, hd.Width, hd.Height)
	if dims == nil {
		return nil, fmt.Errorf("codec: ls: unsupported pixel format %v", hd.PixFmt)
	}
	near := lsNear(hd.Quality)
	n := to - from
	workers := lsWorkers(n)
	var chans [][3][]byte
	if interleaved {
		chans = make([][3][]byte, workers)
		for w := range chans {
			for p := range dims {
				chans[w][p] = make([]byte, dims[p].w*dims[p].h)
			}
		}
	}
	out := make([]*frame.Frame, n)
	// Intra-only: frames outside [from, to) are skipped, not decoded, and
	// the requested frames decode independently across workers.
	err = lsParallel(n, workers, func(i, wkr int) error {
		f := frame.New(hd.Width, hd.Height, hd.PixFmt)
		d := lsDec{data: payloads[from+i]}
		if interleaved {
			for p := range dims {
				if err := lsDecodePlane(&d, chans[wkr][p], dims[p].w, dims[p].h, near); err != nil {
					return fmt.Errorf("codec: ls frame %d plane %d: %w", from+i, p, err)
				}
			}
			lsInterleave(f.Data, chans[wkr])
		} else {
			off := 0
			for p := range dims {
				pn := dims[p].w * dims[p].h
				if err := lsDecodePlane(&d, f.Data[off:off+pn], dims[p].w, dims[p].h, near); err != nil {
					return fmt.Errorf("codec: ls frame %d plane %d: %w", from+i, p, err)
				}
				off += pn
			}
		}
		out[i] = f
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// lsPlaneDims returns the coded plane dimensions for a pixel format, and
// whether the format is interleaved (RGB, needing a deinterleave pass).
func lsPlaneDims(pf frame.PixelFormat, w, h int) ([]struct{ w, h int }, bool) {
	switch pf {
	case frame.RGB:
		d := struct{ w, h int }{w, h}
		return []struct{ w, h int }{d, d, d}, true
	case frame.YUV420:
		return []struct{ w, h int }{{w, h}, {w / 2, h / 2}, {w / 2, h / 2}}, false
	case frame.YUV422:
		return []struct{ w, h int }{{w, h}, {w / 2, h}, {w / 2, h}}, false
	case frame.Gray:
		return []struct{ w, h int }{{w, h}}, false
	default:
		return nil, false
	}
}

func lsDeinterleave(data []byte, sc *lsWork) {
	n := len(data) / 3
	for p := range sc.chans {
		if cap(sc.chans[p]) < n {
			sc.chans[p] = make([]byte, n)
		}
		sc.chans[p] = sc.chans[p][:n]
	}
	r, g, b := sc.chans[0], sc.chans[1], sc.chans[2]
	for i := 0; i < n; i++ {
		r[i] = data[3*i]
		g[i] = data[3*i+1]
		b[i] = data[3*i+2]
	}
}

func lsInterleave(data []byte, chans [3][]byte) {
	n := len(data) / 3
	r, g, b := chans[0], chans[1], chans[2]
	for i := 0; i < n; i++ {
		data[3*i] = r[i]
		data[3*i+1] = g[i]
		data[3*i+2] = b[i]
	}
}

// lsClamp255 clamps to [0, 255] without branches (v is near byte range).
func lsClamp255(v int) int {
	if uint(v) > 255 {
		if v < 0 {
			return 0
		}
		return 255
	}
	return v
}

// lsEncodePlane codes one plane. For near==0 the reconstruction equals
// the source, so prediction reads pix directly and the input is never
// written — concurrent encoders may share frames. For near>0 a scratch
// reconstruction plane carries the decoder-visible samples prediction
// must use.
//
// Row 0 is pure left-DPCM (no run mode); from row 1 on, a == b == c
// (reconstructed left, top, and top-left agreeing) enters run mode: the
// count of samples reproducible as `a` within ±near is Elias-gamma
// coded, then the interrupting sample (if the run stopped short of the
// row end) is coded against prediction a.
func lsEncodePlane(bw *bitWriter, pix []byte, w, h, near int, sc *lsWork) {
	ref := pix
	if near > 0 {
		if cap(sc.rec) < w*h {
			sc.rec = make([]byte, w*h)
		}
		ref = sc.rec[:w*h]
	}
	t := 2*near + 1
	k := uint(lsKDefault)

	// Row 0: left-DPCM from a mid-gray seed.
	var msum uint32
	pred := 128
	row := pix[:w]
	for x := 0; x < w; x++ {
		qr := lsQuantize(int(row[x])-pred, near)
		rv := lsClamp255(pred + qr*t)
		if near > 0 {
			ref[x] = byte(rv)
		}
		m := uint32(qr<<1) ^ uint32(int32(qr)>>31)
		bw.putGolomb(m, k)
		msum += m
		pred = rv
	}
	k = lsNextK(uint32(w), msum)

	for y := 1; y < h; y++ {
		row := pix[y*w : y*w+w]
		prev := ref[(y-1)*w : y*w]
		var recRow []byte
		if near > 0 {
			recRow = ref[y*w : y*w+w]
		}
		msum = 0
		a := int(prev[0])
		c := a
		for x := 0; x < w; x++ {
			b := int(prev[x])
			if a == b && c == b {
				run := 0
				av := byte(a)
				if near == 0 {
					for x+run < w && row[x+run] == av {
						run++
					}
				} else {
					for x+run < w && absInt(int(row[x+run])-a) <= near {
						recRow[x+run] = av
						run++
					}
				}
				bw.putGamma(uint32(run + 1))
				x += run
				if x >= w {
					break
				}
				// Interrupt sample, predicted from the run value a.
				b = int(prev[x])
				qr := lsQuantize(int(row[x])-a, near)
				rv := lsClamp255(a + qr*t)
				if near > 0 {
					recRow[x] = byte(rv)
				}
				m := uint32(qr<<1) ^ uint32(int32(qr)>>31)
				bw.putGolomb(m, k)
				msum += m
				c = b
				a = rv
				continue
			}
			// Branchless MED: clamp(a+b-c, min(a,b), max(a,b)).
			mn, mx := a, b
			if mx < mn {
				mn, mx = mx, mn
			}
			pred := a + b - c
			if pred < mn {
				pred = mn
			}
			if pred > mx {
				pred = mx
			}
			qr := lsQuantize(int(row[x])-pred, near)
			rv := lsClamp255(pred + qr*t)
			if near > 0 {
				recRow[x] = byte(rv)
			}
			m := uint32(qr<<1) ^ uint32(int32(qr)>>31)
			bw.putGolomb(m, k)
			msum += m
			c = b
			a = rv
		}
		k = lsNextK(uint32(w), msum)
	}
}

// lsDecodePlane mirrors lsEncodePlane, writing reconstructed samples
// into out (which doubles as the prediction context as it fills in).
// The Golomb read is inlined at each site: one branchless 8-byte refill,
// a trailing-zeros count for the unary quotient, and shifts — the whole
// per-sample entropy cost. NEAR=0 (the deferred tier's path) gets a
// dedicated loop: no reconstruction multiply or clamp on the serial
// prediction chain, and an unconditional refill while the cursor is 8+
// bytes from the stream end, so the refill branch never mispredicts.
func lsDecodePlane(d *lsDec, out []byte, w, h, near int) error {
	if near == 0 {
		return lsDecodePlaneLossless(d, out, w, h)
	}
	return lsDecodePlaneNear(d, out, w, h, near)
}

// lsDecodePlaneLossless is the NEAR=0 fast path. Valid streams always
// reconstruct in [0,255] (the encoder coded exact residuals), so byte
// truncation replaces clamping; corrupt streams decode to garbage but
// stay memory-safe behind the same truncation/run guards.
func lsDecodePlaneLossless(d *lsDec, out []byte, w, h int) error {
	k := uint(lsKDefault)
	data := d.data
	pos, acc, nb := d.pos, d.acc, d.nb
	fastEnd := len(data) - 8

	var msum uint32
	pred := 128
	row := out[:w]
	for x := 0; x < w; x++ {
		// --- inline golomb read ---
		if pos <= fastEnd {
			acc |= binary.LittleEndian.Uint64(data[pos:]) << nb
			pos += int((63 - nb) >> 3)
			nb |= 56
		} else if nb < 40 {
			for nb <= 56 && pos < len(data) {
				acc |= uint64(data[pos]) << nb
				pos++
				nb += 8
			}
		}
		q := uint(bits.TrailingZeros64(^acc))
		var m uint32
		if q < lsEscapeQ {
			total := q + 1 + k
			if total > nb {
				return errTruncated
			}
			m = uint32(q)<<k | uint32(acc>>(q+1))&(1<<k-1)
			acc >>= total
			nb -= total
		} else {
			if lsEscapeQ+1+lsEscBits > nb {
				return errTruncated
			}
			m = uint32(acc>>(lsEscapeQ+1)) & (1<<lsEscBits - 1)
			acc >>= lsEscapeQ + 1 + lsEscBits
			nb -= lsEscapeQ + 1 + lsEscBits
		}
		// --- end golomb ---
		v := int(int32(m>>1) ^ -int32(m&1))
		bv := byte(pred + v)
		row[x] = bv
		msum += m
		pred = int(bv)
	}
	k = lsNextK(uint32(w), msum)

	for y := 1; y < h; y++ {
		row := out[y*w:][:w]
		prev := out[(y-1)*w:][:w]
		km := uint32(1)<<k - 1
		msum = 0
		a := int(prev[0])
		c := a
		// Two-level loop: the inner loop codes regular samples and never
		// mutates x mid-body, so x stays a simple induction variable and
		// the compiler drops the row/prev bounds checks; run handling
		// (which jumps x by the run length) lives in the outer loop.
		x := 0
		for x < w {
			for ; x < w; x++ {
				b := int(prev[x])
				if (a^b)|(c^b) == 0 {
					break
				}
				mn, mx := a, b
				if mx < mn {
					mn, mx = mx, mn
				}
				pred := a + b - c
				if pred < mn {
					pred = mn
				}
				if pred > mx {
					pred = mx
				}
				// --- inline golomb read ---
				if pos <= fastEnd {
					acc |= binary.LittleEndian.Uint64(data[pos:]) << nb
					pos += int((63 - nb) >> 3)
					nb |= 56
				} else if nb < 40 {
					for nb <= 56 && pos < len(data) {
						acc |= uint64(data[pos]) << nb
						pos++
						nb += 8
					}
				}
				q := uint(bits.TrailingZeros64(^acc))
				var m uint32
				if q < lsEscapeQ {
					total := q + 1 + k
					if total > nb {
						return errTruncated
					}
					m = uint32(q)<<k | uint32(acc>>(q+1))&km
					acc >>= total
					nb -= total
				} else {
					if lsEscapeQ+1+lsEscBits > nb {
						return errTruncated
					}
					m = uint32(acc>>(lsEscapeQ+1)) & (1<<lsEscBits - 1)
					acc >>= lsEscapeQ + 1 + lsEscBits
					nb -= lsEscapeQ + 1 + lsEscBits
				}
				// --- end golomb ---
				v := int(int32(m>>1) ^ -int32(m&1))
				bv := byte(pred + v)
				row[x] = bv
				msum += m
				c = b
				a = int(bv)
			}
			if x >= w {
				break
			}
			{
				// Run mode: gamma-coded run of `a`, then an interrupt
				// sample predicted from a (unless the run hit row end).
				if pos <= fastEnd {
					acc |= binary.LittleEndian.Uint64(data[pos:]) << nb
					pos += int((63 - nb) >> 3)
					nb |= 56
				} else if nb < 40 {
					for nb <= 56 && pos < len(data) {
						acc |= uint64(data[pos]) << nb
						pos++
						nb += 8
					}
				}
				g := uint(bits.TrailingZeros64(^acc))
				if g > lsMaxGamma {
					return fmt.Errorf("codec: ls: corrupt run length")
				}
				if 2*g+1 > nb {
					return errTruncated
				}
				n := uint32(1)<<g | uint32(acc>>(g+1))&(1<<g-1)
				acc >>= 2*g + 1
				nb -= 2*g + 1
				run := int(n) - 1
				if run < 0 || run > w-x {
					return fmt.Errorf("codec: ls: run length %d exceeds row", run)
				}
				av := byte(a)
				seg := row[x : x+run]
				for i := range seg {
					seg[i] = av
				}
				x += run
				if x >= w {
					break
				}
				b := int(prev[x])
				// Interrupt sample, predicted from the run value a.
				if pos <= fastEnd {
					acc |= binary.LittleEndian.Uint64(data[pos:]) << nb
					pos += int((63 - nb) >> 3)
					nb |= 56
				} else if nb < 40 {
					for nb <= 56 && pos < len(data) {
						acc |= uint64(data[pos]) << nb
						pos++
						nb += 8
					}
				}
				q := uint(bits.TrailingZeros64(^acc))
				var m uint32
				if q < lsEscapeQ {
					total := q + 1 + k
					if total > nb {
						return errTruncated
					}
					m = uint32(q)<<k | uint32(acc>>(q+1))&km
					acc >>= total
					nb -= total
				} else {
					if lsEscapeQ+1+lsEscBits > nb {
						return errTruncated
					}
					m = uint32(acc>>(lsEscapeQ+1)) & (1<<lsEscBits - 1)
					acc >>= lsEscapeQ + 1 + lsEscBits
					nb -= lsEscapeQ + 1 + lsEscBits
				}
				v := int(int32(m>>1) ^ -int32(m&1))
				bv := byte(a + v)
				row[x] = bv
				msum += m
				c = b
				a = int(bv)
				x++
			}
		}
		k = lsNextK(uint32(w), msum)
	}
	d.pos, d.acc, d.nb = pos, acc, nb
	return nil
}

// lsDecodePlaneNear is the NEAR>0 path: reconstruction scales the coded
// index by 2*NEAR+1 and clamps, exactly as the encoder did.
func lsDecodePlaneNear(d *lsDec, out []byte, w, h, near int) error {
	t := 2*near + 1
	k := uint(lsKDefault)
	data := d.data
	pos, acc, nb := d.pos, d.acc, d.nb

	var msum uint32
	pred := 128
	row := out[:w]
	for x := 0; x < w; x++ {
		// --- inline golomb read ---
		if nb < 40 {
			if pos+8 <= len(data) {
				acc |= binary.LittleEndian.Uint64(data[pos:]) << nb
				pos += int((63 - nb) >> 3)
				nb |= 56
			} else {
				for nb <= 56 && pos < len(data) {
					acc |= uint64(data[pos]) << nb
					pos++
					nb += 8
				}
			}
		}
		q := uint(bits.TrailingZeros64(^acc))
		var m uint32
		if q < lsEscapeQ {
			total := q + 1 + k
			if total > nb {
				return errTruncated
			}
			m = uint32(q)<<k | uint32(acc>>(q+1))&(1<<k-1)
			acc >>= total
			nb -= total
		} else {
			if lsEscapeQ+1+lsEscBits > nb {
				return errTruncated
			}
			m = uint32(acc>>(lsEscapeQ+1)) & (1<<lsEscBits - 1)
			acc >>= lsEscapeQ + 1 + lsEscBits
			nb -= lsEscapeQ + 1 + lsEscBits
		}
		// --- end golomb ---
		v := int(int32(m>>1) ^ -int32(m&1))
		rv := lsClamp255(pred + v*t)
		row[x] = byte(rv)
		msum += m
		pred = rv
	}
	k = lsNextK(uint32(w), msum)

	for y := 1; y < h; y++ {
		row := out[y*w:][:w]
		prev := out[(y-1)*w:][:w]
		msum = 0
		a := int(prev[0])
		c := a
		for x := 0; x < w; x++ {
			b := int(prev[x])
			var pred int
			if a == b && c == b {
				// Run mode: gamma-coded run of `a`, then an interrupt
				// sample predicted from a (unless the run hit row end).
				if nb < 40 {
					if pos+8 <= len(data) {
						acc |= binary.LittleEndian.Uint64(data[pos:]) << nb
						pos += int((63 - nb) >> 3)
						nb |= 56
					} else {
						for nb <= 56 && pos < len(data) {
							acc |= uint64(data[pos]) << nb
							pos++
							nb += 8
						}
					}
				}
				g := uint(bits.TrailingZeros64(^acc))
				if g > lsMaxGamma {
					return fmt.Errorf("codec: ls: corrupt run length")
				}
				if 2*g+1 > nb {
					return errTruncated
				}
				n := uint32(1)<<g | uint32(acc>>(g+1))&(1<<g-1)
				acc >>= 2*g + 1
				nb -= 2*g + 1
				run := int(n) - 1
				if run < 0 || run > w-x {
					return fmt.Errorf("codec: ls: run length %d exceeds row", run)
				}
				av := byte(a)
				seg := row[x : x+run]
				for i := range seg {
					seg[i] = av
				}
				x += run
				if x >= w {
					break
				}
				b = int(prev[x])
				pred = a
			} else {
				mn, mx := a, b
				if mx < mn {
					mn, mx = mx, mn
				}
				pred = a + b - c
				if pred < mn {
					pred = mn
				}
				if pred > mx {
					pred = mx
				}
			}
			// --- inline golomb read ---
			if nb < 40 {
				if pos+8 <= len(data) {
					acc |= binary.LittleEndian.Uint64(data[pos:]) << nb
					pos += int((63 - nb) >> 3)
					nb |= 56
				} else {
					for nb <= 56 && pos < len(data) {
						acc |= uint64(data[pos]) << nb
						pos++
						nb += 8
					}
				}
			}
			q := uint(bits.TrailingZeros64(^acc))
			var m uint32
			if q < lsEscapeQ {
				total := q + 1 + k
				if total > nb {
					return errTruncated
				}
				m = uint32(q)<<k | uint32(acc>>(q+1))&(1<<k-1)
				acc >>= total
				nb -= total
			} else {
				if lsEscapeQ+1+lsEscBits > nb {
					return errTruncated
				}
				m = uint32(acc>>(lsEscapeQ+1)) & (1<<lsEscBits - 1)
				acc >>= lsEscapeQ + 1 + lsEscBits
				nb -= lsEscapeQ + 1 + lsEscBits
			}
			// --- end golomb ---
			v := int(int32(m>>1) ^ -int32(m&1))
			rv := lsClamp255(pred + v*t)
			row[x] = byte(rv)
			msum += m
			c = b
			a = rv
		}
		k = lsNextK(uint32(w), msum)
	}
	d.pos, d.acc, d.nb = pos, acc, nb
	return nil
}

// bitWriter packs bits LSB-first through a 64-bit accumulator, spilling
// 32 bits at a time. Callers keep single writes <= 32 bits, so the
// accumulator never overflows (w.n < 32 between calls).
type bitWriter struct {
	buf []byte
	acc uint64
	n   uint
}

func (w *bitWriter) reset() {
	w.buf = w.buf[:0]
	w.acc, w.n = 0, 0
}

// putBits appends the low n bits of v (n <= 32).
func (w *bitWriter) putBits(v uint64, n uint) {
	w.acc |= v << w.n
	w.n += n
	if w.n >= 32 {
		w.buf = append(w.buf, byte(w.acc), byte(w.acc>>8), byte(w.acc>>16), byte(w.acc>>24))
		w.acc >>= 32
		w.n -= 32
	}
}

// putGolomb emits magnitude m as Golomb-Rice with parameter k: the
// quotient in unary (ones, zero-terminated) then k remainder bits,
// escaping to a raw magnitude for heavy-tail residuals.
func (w *bitWriter) putGolomb(m uint32, k uint) {
	q := uint(m >> k)
	if q < lsEscapeQ {
		w.putBits(uint64(1)<<q-1, q+1)
		w.putBits(uint64(m)&(uint64(1)<<k-1), k)
	} else {
		w.putBits(uint64(1)<<lsEscapeQ-1, lsEscapeQ+1)
		w.putBits(uint64(m), lsEscBits)
	}
}

// putGamma writes n >= 1 in Elias-gamma flavored for this bit order:
// floor(log2 n) in unary (ones, zero-terminated), then the low bits of n.
func (w *bitWriter) putGamma(n uint32) {
	g := uint(bits.Len32(n)) - 1
	w.putBits(uint64(1)<<g-1, g+1)
	w.putBits(uint64(n)&(uint64(1)<<g-1), g)
}

// finish flushes the trailing bits and returns a copy of the payload
// (the internal buffer is reused across frames).
func (w *bitWriter) finish() []byte {
	for w.n > 0 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
		if w.n >= 8 {
			w.n -= 8
		} else {
			w.n = 0
		}
	}
	out := make([]byte, len(w.buf))
	copy(out, w.buf)
	return out
}

// lsDec is the decoder's bitstream cursor: LSB-first through a 64-bit
// accumulator, refilled 8 bytes at a time. The plane decoder keeps the
// fields in locals and writes them back on return.
type lsDec struct {
	data []byte
	pos  int
	acc  uint64
	nb   uint
}
