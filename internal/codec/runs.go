package codec

import (
	"encoding/binary"
	"math/bits"
)

// Run coding of the predictive profiles' frame streams (container v3).
//
// The row kernels write one code per sample, and on the content VSS stores
// most of those codes are zero: a P-frame of a static background is almost
// nothing else. Deflate keeps only a few percent of such a stream, but it
// pays its match search on every byte it is handed. So before deflate the
// encoder folds every run of at least minRun zero codes into one run token
// — runToken followed by the uvarint of the run's length minus minRun — and
// the decoder expands the tokens again before the kernels read the stream.
// The kernels, the quantizer and the reconstruction are those of v1, and so
// is every decoded pixel. v1 let a sample's code be the single byte 254;
// in v3 that code takes the 3-byte escape (escToken, 254, 0), which the
// kernels already decode to the same residual. The MV table at the head of
// a P-frame stream is copied as it is.
//
// Both directions work a word at a time: a word with no byte that needs
// attention (the start of a zero run or a 254/255 for the fold, a token for
// the expansion) is copied whole, and the first byte that does is found
// with SWAR tests. The expansion clears its output ahead of itself, so a
// run costs it one advance.
const (
	runToken = 254 // followed by uvarint(run length - minRun)
	escToken = 255 // followed by the two bytes of a zigzag code
	minRun   = 4   // shortest zero run worth a token
)

// SWAR constants for byte-wise tests on a little-endian word.
const (
	byteOnes  = 0x0101010101010101
	byteLows  = 0x7F7F7F7F7F7F7F7F
	byteHighs = 0x8080808080808080
)

// highBytes flags, in bit 7 of its byte, the bytes of w that are 254 or
// 255. A borrow may also flag bytes above a true one, so only the lowest
// flag is exact; that is the only one callers read.
func highBytes(w uint64) uint64 { return (^w - 2*byteOnes) & w & byteHighs }

// zeroBytes flags, in bit 7 of its byte, exactly the zero bytes of w.
func zeroBytes(w uint64) uint64 { return ^((w&byteLows + byteLows) | w) & byteHighs }

// runStarts flags, in bit 7 of its byte, exactly the bytes of w that begin
// minRun (four) zero bytes; next holds the bytes that follow w, so a run
// may continue into them.
func runStarts(w, next uint64) uint64 {
	z, zn := zeroBytes(w), zeroBytes(next)
	return z & (z>>8 | zn<<56) & (z>>16 | zn<<48) & (z>>24 | zn<<40)
}

// foldRuns returns the run-coded form of stream in dst's backing array
// (grown if it is too small). The first head bytes are a P-frame's MV table
// and are copied as they are.
func foldRuns(dst, stream []byte, head int) []byte {
	// Only a one-byte 254 grows when folded; every other code or run takes
	// at most its own length. So out keeps room for the rest of stream as
	// it is plus a word — enough for every store below — and regrows only
	// at a 254. A new buffer gets a quarter more, so that a reused dst
	// takes the slightly longer P-frame streams that follow an I-frame.
	out := dst[:cap(dst)]
	if need := len(stream) + 8; len(out) < need {
		out = make([]byte, need+need/4)
	}
	k := copy(out, stream[:head])
	for i := head; i < len(stream); {
		if i+8 <= len(stream) {
			w := binary.LittleEndian.Uint64(stream[i:])
			binary.LittleEndian.PutUint64(out[k:], w)
			var next uint64 // near the end: as if zeros followed, which the switch sorts out
			if i+16 <= len(stream) {
				next = binary.LittleEndian.Uint64(stream[i+8:])
			}
			m := runStarts(w, next) | highBytes(w)
			if m == 0 {
				k, i = k+8, i+8
				continue
			}
			n := bits.TrailingZeros64(m) >> 3
			k, i = k+n, i+n // stream[i] is now 254, 255 or the start of a zero run
		}
		switch b := stream[i]; b {
		case 0:
			j := zeroRunEnd(stream, i)
			if j-i < minRun {
				for ; i < j; i++ {
					out[k] = 0
					k++
				}
				continue
			}
			out[k] = runToken
			if v := j - i - minRun; v < 0x80 {
				out[k+1] = byte(v)
				k += 2
			} else {
				k += 1 + binary.PutUvarint(out[k+1:], uint64(v))
			}
			i = j
		case runToken:
			if len(out)-k < len(stream)-i+8+2 {
				out = roomFor(out[:k], len(stream)-i+8+2)
				out = out[:cap(out)]
			}
			out[k], out[k+1], out[k+2] = escToken, runToken, 0
			k, i = k+3, i+1
		case escToken:
			k += copy(out[k:], stream[i:min(i+3, len(stream))])
			i += 3
		default:
			out[k] = b
			k, i = k+1, i+1
		}
	}
	return out[:k]
}

// zeroRunEnd returns the end of the run of zero bytes that starts at s[i].
func zeroRunEnd(s []byte, i int) int {
	for ; i+8 <= len(s); i += 8 {
		if w := binary.LittleEndian.Uint64(s[i:]); w != 0 {
			return i + bits.TrailingZeros64(w)>>3
		}
	}
	for i < len(s) && s[i] == 0 {
		i++
	}
	return i
}

// expandRuns writes the byte-per-sample stream that the run-coded src
// stands for into dst's backing array, growing it with the bytes actually
// produced, and returns it with at least slack bytes of capacity past its
// end. The first head bytes are copied as they are. The running length is
// checked against limit before every step, so a token claiming more than
// the frame can hold fails with errOversized having written nothing for it,
// and a token cut short by the end of src fails with errTruncated.
//
// The output is cleared a few kilobytes ahead of the write position, so a
// run costs only the advance past it. Literals are stored a word at a time;
// a word that ends in a token is stored with the token's bytes masked to
// zero, and the token itself — a run under 132 samples, whose length takes
// one byte — is read from the same word when it fits. Everything else goes
// through expandStep.
func expandRuns(dst, src []byte, head, limit, slack int) ([]byte, error) {
	head = min(head, len(src)) // a short stream fails the caller's length check
	if head > limit {
		return nil, errOversized
	}
	// A step of the word loop writes at most 16 bytes from k: a word, then
	// from expandStep an escape starting inside it. out[k:cleared] is zero
	// and nothing has been written at or past cleared.
	const room = 16
	out, cleared := clearAhead(dst[:cap(dst)], 0, head+room)
	k := copy(out, src[:head])
	i := head
	var err error
	for i+8 <= len(src) {
		if k+room > cleared {
			out, cleared = clearAhead(out, cleared, k+room)
		}
		w := binary.LittleEndian.Uint64(src[i:])
		m := highBytes(w)
		if m == 0 {
			if limit-k < 8 {
				return nil, errOversized
			}
			binary.LittleEndian.PutUint64(out[k:], w)
			k, i = k+8, i+8
			continue
		}
		sh := uint(bits.TrailingZeros64(m)) &^ 7 // src[i+sh/8] is a token
		n := int(sh >> 3)
		if n > limit-k {
			return nil, errOversized
		}
		binary.LittleEndian.PutUint64(out[k:], w&(1<<sh-1))
		k += n
		if t := w >> sh; n <= 6 && t&0x80FF == runToken {
			run := int(t>>8&0x7F) + minRun
			if run > limit-k {
				return nil, errOversized
			}
			k, i = k+run, i+n+2
			continue
		}
		if k, i, err = expandStep(out, src, k, i+n, limit); err != nil {
			return nil, err
		}
	}
	for i < len(src) {
		if k+room > cleared {
			out, cleared = clearAhead(out, cleared, k+room)
		}
		if k, i, err = expandStep(out, src, k, i, limit); err != nil {
			return nil, err
		}
	}
	// A final run may end past cleared; the slack need not be zero.
	if k+slack > cleared {
		out, _ = clearAhead(out, cleared, k+slack)
	}
	return out[:k], nil
}

// expandStep expands the one code or token at src[i] into out[k:], which
// has room for eight bytes, and returns the next positions in out and src.
func expandStep(out, src []byte, k, i, limit int) (int, int, error) {
	switch b := src[i]; b {
	case runToken:
		v, m := binary.Uvarint(src[i+1:])
		if m == 0 {
			return k, i, errTruncated
		}
		if rem := limit - k; m < 0 || rem < minRun || v > uint64(rem-minRun) {
			return k, i, errOversized
		}
		return k + int(v) + minRun, i + 1 + m, nil
	case escToken:
		if i+3 > len(src) {
			return k, i, errTruncated
		}
		if limit-k < 3 {
			return k, i, errOversized
		}
		return k + copy(out[k:], src[i:i+3]), i + 3, nil
	default:
		if k >= limit {
			return k, i, errOversized
		}
		out[k] = b
		return k + 1, i + 1, nil
	}
}

// clearAhead returns buf, grown if needed, with buf[cleared:need] zeroed —
// and a few kilobytes more where buf already extends that far — and the new
// end of the zeroed region. Bytes before cleared are kept. Growth doubles,
// so it tracks the bytes produced, not a size claimed up front.
func clearAhead(buf []byte, cleared, need int) ([]byte, int) {
	const step = 4 << 10
	if need > len(buf) {
		grown := make([]byte, max(2*len(buf), need))
		copy(grown, buf[:cleared])
		return grown, len(grown) // fresh memory is already zero
	}
	end := min(max(need, cleared+step), len(buf))
	clear(buf[cleared:end])
	return buf, end
}
