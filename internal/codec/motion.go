package codec

// Motion estimation for the hevc profile: per-block diamond search over the
// previous reconstructed luma plane. The h264 profile uses zero-motion
// prediction (searchRadius 0), mirroring the compute/ratio gap between the
// real codecs that the paper's cost model calibrates against.

// mv is a per-block motion vector in luma pixels.
type mv struct {
	dx, dy int
}

// mvTableLen is the number of motion vectors a P-frame of the given luma
// dimensions carries: one per block, none for a zero-motion profile.
func mvTableLen(lumaW, lumaH int, prof profile) int {
	if prof.searchRadius == 0 {
		return 0
	}
	bs := prof.blockSize
	return ((lumaW + bs - 1) / bs) * ((lumaH + bs - 1) / bs)
}

// nextRun returns the end of the run of blocks starting at sample x0 that
// share one motion vector, and that vector. rowMVs is the block row's slice
// of the MV table; empty means zero motion, and the whole row is one run.
func nextRun(rowMVs []mv, x0, bs, w int) (x1 int, m mv) {
	if len(rowMVs) == 0 {
		return w, mv{}
	}
	b := x0 / bs
	m = rowMVs[b]
	for b++; b < len(rowMVs) && rowMVs[b] == m; b++ {
	}
	return min(b*bs, w), m
}

// estimateMotion returns one motion vector per block of the luma plane,
// reusing dst's backing array when it is large enough. The zero-motion
// profile gets an empty table, which the plane kernels read as all-zero.
func estimateMotion(dst []mv, cur, ref plane, prof profile) []mv {
	n := mvTableLen(cur.w, cur.h, prof)
	if cap(dst) < n {
		dst = make([]mv, n)
	}
	dst = dst[:n]
	if n == 0 {
		return dst
	}
	bs := prof.blockSize
	bw := (cur.w + bs - 1) / bs
	bh := (cur.h + bs - 1) / bs
	for by := 0; by < bh; by++ {
		for bx := 0; bx < bw; bx++ {
			dst[by*bw+bx] = diamondSearch(cur, ref, bx*bs, by*bs, bs, prof.searchRadius)
		}
	}
	return dst
}

// diamondSearch finds a low-SAD motion vector for the block with top-left
// (x0, y0) using a coarse-to-fine diamond pattern bounded by radius.
func diamondSearch(cur, ref plane, x0, y0, bs, radius int) mv {
	best := mv{0, 0}
	bestSAD := blockSAD(cur, ref, x0, y0, bs, 0, 0, 1<<30)
	if bestSAD == 0 {
		return best
	}
	for step := radius; step >= 1; step /= 2 {
		improved := true
		for improved {
			improved = false
			for _, d := range [4]mv{{step, 0}, {-step, 0}, {0, step}, {0, -step}} {
				cand := mv{best.dx + d.dx, best.dy + d.dy}
				if cand.dx < -radius || cand.dx > radius || cand.dy < -radius || cand.dy > radius {
					continue
				}
				sad := blockSAD(cur, ref, x0, y0, bs, cand.dx, cand.dy, bestSAD)
				if sad < bestSAD {
					bestSAD, best = sad, cand
					improved = true
				}
			}
			if bestSAD == 0 {
				return best
			}
		}
	}
	return best
}

// blockSAD computes the sum of absolute differences between the current
// block and the reference block displaced by (dx, dy), early-exiting once
// the running sum exceeds limit. Rows clamp vertically by choosing the
// reference row; a block whose displaced columns stay inside the reference
// (every candidate but those at the left and right frame edges) sums over
// two row slices, the rest clamp each column.
func blockSAD(cur, ref plane, x0, y0, bs, dx, dy, limit int) int {
	x1, y1 := min(x0+bs, cur.w), min(y0+bs, cur.h)
	inside := x0+dx >= 0 && x1+dx <= ref.w
	sum := 0
	for y := y0; y < y1; y++ {
		crow := cur.pix[y*cur.w+x0 : y*cur.w+x1]
		rrow := ref.pix[clampInt(y+dy, ref.h)*ref.w:][:ref.w]
		if inside {
			rrow = rrow[x0+dx:][:len(crow)]
			for i, c := range crow {
				sum += absDiff(c, rrow[i])
			}
		} else {
			for i, c := range crow {
				sum += absDiff(c, rrow[clampInt(x0+i+dx, ref.w)])
			}
		}
		if sum >= limit {
			return sum
		}
	}
	return sum
}

func absDiff(a, b byte) int {
	d := int(a) - int(b)
	if d < 0 {
		d = -d
	}
	return d
}

// appendMVs serializes motion vectors as offset bytes (mv+128) appended to
// dst. The stream is later deflate-compressed with the residuals, so runs
// of zero vectors cost almost nothing.
func appendMVs(dst []byte, mvs []mv) []byte {
	for _, m := range mvs {
		dst = append(dst, byte(m.dx+128), byte(m.dy+128))
	}
	return dst
}

// decodeMVs reads the MV table of a P-frame into dst (reusing its backing
// array), returning the vectors and the number of stream bytes consumed.
func decodeMVs(dst []mv, stream []byte, lumaW, lumaH int, prof profile) ([]mv, int, error) {
	n := mvTableLen(lumaW, lumaH, prof)
	if len(stream) < n*2 {
		return dst, 0, errTruncated
	}
	if cap(dst) < n {
		dst = make([]mv, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = mv{int(stream[i*2]) - 128, int(stream[i*2+1]) - 128}
	}
	return dst, n * 2, nil
}
