// Package lossless provides deferred compression of uncompressed cache
// entries (Section 5.2 of the paper). The paper uses Zstandard with
// levels 1..19. The deferred tier writes through Recompress, which
// re-encodes raw GOPs with the ls codec; the level the controller scales
// against the remaining storage budget (LevelForBudget) is recorded, and
// Compress still maps the same dial onto compress/flate for the Figure 13
// experiment. Decompress reads the VSL1 flate blocks older stores hold.
package lossless

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/codec"
)

// MinLevel and MaxLevel bound the compression level dial, matching
// Zstandard's documented range used by the paper.
const (
	MinLevel = 1
	MaxLevel = 19
)

// magic identifies a lossless-compressed block on disk.
var magic = [4]byte{'V', 'S', 'L', '1'}

// Compress compresses src at the given level (1..19, clamped) and returns a
// framed block: magic, level, original length, deflate payload.
func Compress(src []byte, level int) ([]byte, error) {
	if level < MinLevel {
		level = MinLevel
	}
	if level > MaxLevel {
		level = MaxLevel
	}
	fl := 1 + (level-1)*8/(MaxLevel-1) // 1..19 -> 1..9 linearly
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.WriteByte(byte(level))
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(src)))
	buf.Write(lenBuf[:])
	w, err := flate.NewWriter(&buf, fl)
	if err != nil {
		return nil, fmt.Errorf("lossless: %w", err)
	}
	if _, err := w.Write(src); err != nil {
		return nil, fmt.Errorf("lossless: %w", err)
	}
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("lossless: %w", err)
	}
	return buf.Bytes(), nil
}

// Decompress reverses Compress.
func Decompress(block []byte) ([]byte, error) {
	if len(block) < 13 || !bytes.Equal(block[:4], magic[:]) {
		return nil, fmt.Errorf("lossless: bad block header")
	}
	n := binary.LittleEndian.Uint64(block[5:13])
	r := flate.NewReader(bytes.NewReader(block[13:]))
	defer r.Close()
	out := make([]byte, n)
	if _, err := io.ReadFull(r, out); err != nil {
		return nil, fmt.Errorf("lossless: truncated payload: %w", err)
	}
	return out, nil
}

// Level extracts the compression level recorded in a block header; the
// deferred-compression controller reads this to decide whether an entry is
// worth recompressing at a higher level.
func Level(block []byte) (int, error) {
	if len(block) < 13 || !bytes.Equal(block[:4], magic[:]) {
		return 0, fmt.Errorf("lossless: bad block header")
	}
	return int(block[4]), nil
}

// IsCompressed reports whether data carries the lossless block framing.
func IsCompressed(data []byte) bool {
	return len(data) >= 13 && bytes.Equal(data[:4], magic[:])
}

// Recompress rewrites a raw GOP container losslessly for the deferred
// tier by re-encoding it through the registry's lossless fast codec (ls):
// the result is a plain, directly-decodable GOP container with no flate
// on the read path. Anything ls cannot take — non-container data,
// non-raw codecs, an ls failure — is refused with an error, and the
// caller leaves those bytes as they are. Compress's VSL1 flate framing is
// no longer written here; stores that hold it still decode (IsCompressed
// sniffs it).
func Recompress(data []byte) ([]byte, error) {
	hd, err := codec.DecodeHeader(data)
	if err != nil {
		return nil, fmt.Errorf("lossless: not a GOP container: %w", err)
	}
	if hd.Codec != codec.Raw {
		return nil, fmt.Errorf("lossless: %s GOP is not raw", hd.Codec)
	}
	if c, ok := codec.Lookup(codec.LS); !ok || !c.Lossless(100) {
		return nil, fmt.Errorf("lossless: no lossless ls codec registered")
	}
	frames, _, err := codec.DecodeGOP(data)
	if err != nil {
		return nil, fmt.Errorf("lossless: %w", err)
	}
	out, _, err := codec.EncodeGOP(frames, codec.LS, 100)
	if err != nil {
		return nil, fmt.Errorf("lossless: %w", err)
	}
	return out, nil
}

// LevelForBudget implements the paper's budget-driven level scaling: the
// level grows linearly as the remaining fraction of the storage budget
// shrinks (Section 5.2: "VSS linearly scales this compression level with
// the remaining storage budget").
func LevelForBudget(remainingFraction float64) int {
	if remainingFraction < 0 {
		remainingFraction = 0
	}
	if remainingFraction > 1 {
		remainingFraction = 1
	}
	level := MinLevel + int((1-remainingFraction)*float64(MaxLevel-MinLevel)+0.5)
	if level > MaxLevel {
		level = MaxLevel
	}
	return level
}
