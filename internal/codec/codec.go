// Package codec implements the video compression substrate for VSS: a
// GOP-structured predictive codec written from scratch in pure Go.
//
// The paper's prototype delegates compression to FFmpeg/NVENC H.264 and
// HEVC encoders. This reproduction substitutes two profiles of a real (if
// simplified) codec that preserve the properties VSS's design depends on:
//
//   - GOPs are independently decodable: every GOP starts with an I-frame
//     and takes no references outside the GOP.
//   - Frames within a GOP form a dependency chain: P-frames reference the
//     previous reconstructed frame, so decoding frame k requires decoding
//     frames 0..k-1 of the GOP. This is what makes the paper's look-back
//     cost c_l real.
//   - Compression is lossy with a quality dial (quantization step), so the
//     PSNR-based quality model operates on genuine distortion.
//   - The two profiles differ in coding tools the way H.264 and HEVC do:
//     "h264" uses 8x8 blocks, left-neighbor intra prediction, and
//     zero-motion inter prediction; "hevc" uses 16x16 blocks, left+top
//     intra prediction, and diamond motion search, at higher encode cost.
//     Motion search leaves hevc fewer non-zero residuals on moving content,
//     but that does not make its bitstream the smaller one: on the
//     benchmark's traffic scene an hevc GOP is 1.6-1.7 times the size of an
//     h264 GOP at the same quality (TestEncodedSizeCeilings pins both).
//
// Pixel data is coded in YUV420 (as real codecs do); callers convert to and
// from their preferred formats with internal/frame. The "raw" codec stores
// frames losslessly in their original pixel format.
//
// # Span kernels, run coding and the pixel freeze
//
// The predictive profiles' sample loops are span kernels: a row is walked as
// runs of blocks sharing one motion vector, the vector is resolved once per
// run, and the part of the run whose displaced samples lie inside the
// reference is coded by a loop over equal-length row slices (eight samples
// at a time where all eight residuals are zero), leaving only the samples a
// vector pushes past the left or right edge to the per-sample clamped path.
// Intra prediction is specialised per row, and the motion search's SAD sums
// over row slices. See encodeInterPlane, decodeInterPlane and
// docs/ARCHITECTURE.md.
//
// The kernels write one code per sample, most of them zero. Before deflate,
// each frame's stream is run-coded (runs.go): every run of at least four
// zero codes folds into one token, and the decoder expands the tokens again
// before the kernels read the stream. Deflate sees about a half (h264) to a
// quarter (hevc) of the bytes on the traffic scene, and both profiles use
// one deflate level. New h264/hevc GOPs carry container v3 for it; v1 GOPs,
// which stores already hold, decode through the same kernels without the
// expansion.
//
// Decoded pixels are frozen: every pixel must stay what earlier builds
// decoded, and every GOP an earlier build wrote must still decode.
// golden_test.go holds digests of decoded frames, captured before the
// kernels existed, and of this build's encoded bytes; testdata/v1 holds
// GOPs written before run coding; kernels_test.go property-tests each
// kernel against the per-sample loops it replaced (reference_test.go), and
// runs_test.go the fold and expansion against byte-at-a-time references.
//
// DecodeRange allocates only the frames it returns. The inflater, the
// inflated stream and its expansion, the MV table and the look-back planes
// come from a pooled scratch held for one call; frames in the requested
// window are reconstructed directly into the returned frame's Data, which
// the codec reads as the next frame's reference while the call runs and
// never touches after it returns. Inflated and expanded streams are bounded
// by what the header's dimensions allow, and nothing is sized from the
// header before the stream has shown a byte per sample.
package codec

import (
	"encoding/binary"
	"fmt"

	"repro/internal/frame"
)

// ID names a compression codec (the physical parameter c in the VSS API).
type ID string

// Built-in codecs, registered in this package's init functions. The names
// intentionally match the paper's usage; the implementations are the
// from-scratch profiles described in the package comment, plus "ls" — the
// fast JPEG-LS-style near-lossless codec (see ls.go). Validity is a
// registry question (see registry.go), not a fixed list: external packages
// may Register additional codecs.
const (
	Raw  ID = "raw"
	H264 ID = "h264"
	HEVC ID = "hevc"
	LS   ID = "ls"
)

// DefaultQuality is the quality preset used when a write or read does not
// specify one. Quality ranges over [1, 100]; 100 is the finest quantizer.
const DefaultQuality = 80

// profile captures the per-codec coding parameters of the predictive
// (lossy) profiles. Each registered lossyCodec instance carries its own
// profile, so profile selection is registry-driven rather than a map keyed
// by a closed ID set.
type profile struct {
	blockSize    int  // inter-prediction block size
	searchRadius int  // motion search radius in pixels (0 = zero-MV only)
	intra2D      bool // average left+top intra prediction (vs left only)
}

// quantizer maps the quality preset to the uniform quantization step.
// Quality 100 -> Q=1 (lossless residuals), quality 1 -> Q=26.
func quantizer(quality int) int {
	if quality < 1 {
		quality = 1
	}
	if quality > 100 {
		quality = 100
	}
	return 1 + (100-quality)/4
}

// ExpectedMSE returns the analytic distortion of encoding at a quality
// preset: uniform quantization with step Q has error uniform on
// [-Q/2, Q/2], hence MSE ~= Q^2/12. For this codec the estimate tracks
// measured PSNR within ~0.5 dB across the quality range, so it plays the
// role of the paper's vbench-seeded bitrate->PSNR table; VSS still
// refines its estimator by periodically sampling exact PSNR.
func ExpectedMSE(quality int) float64 {
	q := float64(quantizer(quality))
	if q <= 1 {
		return 0 // residuals are stored exactly
	}
	return q * q / 12
}

// FrameType distinguishes independently decodable I-frames from P-frames
// that depend on their predecessor, the distinction the paper's look-back
// cost model draws between sets A (independent) and Δ−A (dependent).
type FrameType uint8

const (
	// IFrame is intra-coded: decodable with no reference to other frames.
	IFrame FrameType = iota
	// PFrame is inter-coded against the previous frame in the GOP.
	PFrame
)

func (t FrameType) String() string {
	if t == IFrame {
		return "I"
	}
	return "P"
}

// Header describes an encoded GOP without decoding its payload.
type Header struct {
	Codec      ID
	Width      int
	Height     int
	PixFmt     frame.PixelFormat // payload pixel format (yuv420 for lossy codecs)
	Quality    int
	FrameCount int
	FrameTypes []FrameType

	// tableOff is the byte offset of the frame table within the container
	// (version-dependent: v2 headers carry a variable-length codec name).
	// Set by DecodeHeader; framePayloads relies on it.
	tableOff int
	// runCoded marks a v3 container: the lossy frame streams have their
	// zero runs folded into run tokens (see runs.go).
	runCoded bool
}

// Stats summarizes an encode for the quality/cost models.
type Stats struct {
	Bytes        int     // encoded size including container framing
	BitsPerPixel float64 // mean bits per pixel (the paper's MBPP)
	IFrames      int
	PFrames      int
}

// Container versions. v1 tags the codec with a single byte from the fixed
// legacy table below; every GOP written before the registry existed is v1,
// and raw still writes v1 so its bytes are identical to pre-registry
// builds. v2 tags the codec by name (one length byte + the name), so
// registered codecs need no entry in any table — that is what makes
// per-GOP codec tags open-ended. v3 is the v1 layout for an h264 or hevc
// GOP whose frame streams are run-coded (runs.go); it is the only version
// those profiles write. It has its own number because byte 254 is a run
// token in v3 and a residual in v1: a build that predates run coding must
// reject a v3 GOP rather than misdecode it. v1 h264/hevc GOPs already
// stored decode as before.
const (
	gopMagic      = "VGOP"
	containerV1   = 1
	containerV2   = 2
	containerV3   = 3
	maxCodecName  = 32      // v2 name length bound (sanity, not a format limit)
	maxFrameCount = 1 << 20 // implausibility bound on the header frame count
	// maxDimension is the implausibility bound on the header width and
	// height (four times the largest picture any H.264/HEVC level defines):
	// a header is client-supplied, and decoders size arithmetic and
	// allocations from it.
	maxDimension = 1 << 15
)

// legacyCodecByte is the closed v1 tag table. Frozen: new codecs get v2
// name tags instead of new bytes.
var legacyCodecByte = map[ID]byte{Raw: 0, H264: 1, HEVC: 2}
var legacyCodecFromByte = map[byte]ID{0: Raw, 1: H264, 2: HEVC}

// EncodeGOP encodes a contiguous run of frames as one independently
// decodable GOP. All frames must share dimensions; lossy codecs convert
// input to YUV420 internally. quality is clamped to [1,100]; pass
// DefaultQuality for the system default. Raw GOPs ignore quality.
//
// Each call allocates fresh encoder scratch; loops that encode many GOPs
// (the ingest pipeline, transcoding reads) should hold an Encoder and call
// its EncodeGOP method instead.
func EncodeGOP(frames []*frame.Frame, codec ID, quality int) ([]byte, Stats, error) {
	return new(Encoder).EncodeGOP(frames, codec, quality)
}

// DecodeHeader parses only the container header. It is cheap: the read
// planner uses it to learn frame types and dimensions without paying
// decode cost. Unknown codec tags (a v1 byte outside the legacy table, or
// a v2 name with no registered codec) fail with ErrUnknownCodec.
func DecodeHeader(data []byte) (Header, error) {
	var hd Header
	if len(data) < 6 || string(data[:4]) != gopMagic {
		return hd, fmt.Errorf("codec: bad GOP magic")
	}
	var off int
	switch data[4] {
	case containerV1, containerV3:
		if len(data) < 20 {
			return hd, fmt.Errorf("codec: truncated v%d header", data[4])
		}
		id, ok := legacyCodecFromByte[data[5]]
		if !ok {
			return hd, fmt.Errorf("codec: codec byte %d: %w", data[5], ErrUnknownCodec)
		}
		hd.runCoded = data[4] == containerV3
		if hd.runCoded && id == Raw {
			return hd, fmt.Errorf("codec: raw GOP in a v3 container")
		}
		hd.Codec = id
		off = 6
	case containerV2:
		n := int(data[5])
		if n == 0 || n > maxCodecName || len(data) < 6+n+14 {
			return hd, fmt.Errorf("codec: bad v2 codec tag")
		}
		hd.Codec = ID(data[6 : 6+n])
		if !hd.Codec.Valid() {
			return hd, fmt.Errorf("codec: codec %q: %w", hd.Codec, ErrUnknownCodec)
		}
		off = 6 + n
	default:
		return hd, fmt.Errorf("codec: unsupported container version %d", data[4])
	}
	hd.PixFmt = frame.PixelFormat(data[off])
	hd.Quality = int(data[off+1])
	hd.Width = int(binary.LittleEndian.Uint32(data[off+2 : off+6]))
	hd.Height = int(binary.LittleEndian.Uint32(data[off+6 : off+10]))
	hd.FrameCount = int(binary.LittleEndian.Uint32(data[off+10 : off+14]))
	if hd.Width <= 0 || hd.Width > maxDimension || hd.Height <= 0 || hd.Height > maxDimension {
		return hd, fmt.Errorf("codec: implausible dimensions %dx%d", hd.Width, hd.Height)
	}
	if hd.FrameCount < 0 || hd.FrameCount > maxFrameCount {
		return hd, fmt.Errorf("codec: implausible frame count %d", hd.FrameCount)
	}
	off += 14
	hd.tableOff = off
	// Walk the frame table to collect types without touching payloads.
	hd.FrameTypes = make([]FrameType, 0, hd.FrameCount)
	for i := 0; i < hd.FrameCount; i++ {
		if off+5 > len(data) {
			return hd, fmt.Errorf("codec: truncated frame table at frame %d", i)
		}
		hd.FrameTypes = append(hd.FrameTypes, FrameType(data[off]))
		n := int(binary.LittleEndian.Uint32(data[off+1 : off+5]))
		off += 5 + n
		if off > len(data) {
			return hd, fmt.Errorf("codec: truncated frame payload at frame %d", i)
		}
	}
	return hd, nil
}

// DecodeGOP decodes every frame in the GOP.
func DecodeGOP(data []byte) ([]*frame.Frame, Header, error) {
	return DecodeRange(data, 0, -1)
}

// DecodeRange decodes frames [from, to) of the GOP (to = -1 means to the
// end). Because P-frames chain, the decoder must reconstruct every frame
// from the GOP start up to `to` even when from > 0 — the look-back cost the
// paper models. The returned slice contains only frames in [from, to).
func DecodeRange(data []byte, from, to int) ([]*frame.Frame, Header, error) {
	hd, err := DecodeHeader(data)
	if err != nil {
		return nil, hd, err
	}
	if to < 0 || to > hd.FrameCount {
		to = hd.FrameCount
	}
	if from < 0 || from > to {
		return nil, hd, fmt.Errorf("codec: bad decode range [%d,%d) of %d", from, to, hd.FrameCount)
	}
	c, ok := Lookup(hd.Codec)
	if !ok {
		return nil, hd, fmt.Errorf("codec: %q: %w", hd.Codec, ErrUnknownCodec)
	}
	frames, err := c.DecodeRange(data, hd, from, to)
	return frames, hd, err
}

// writeContainer assembles the GOP container: header then (type, length,
// payload) per frame. Codecs with a legacy v1 byte write the v1 layout —
// numbered v3 when runCoded says the payloads are run-coded streams — and
// everything else gets a v2 name tag.
func writeContainer(codec ID, runCoded bool, pixfmt frame.PixelFormat, quality, w, h int, types []FrameType, payloads [][]byte) []byte {
	legacy, isLegacy := legacyCodecByte[codec]
	version := byte(containerV1)
	if runCoded {
		version = containerV3
	}
	hdrLen := 20
	if !isLegacy {
		hdrLen = 6 + len(codec) + 14
	}
	total := hdrLen
	for _, p := range payloads {
		total += 5 + len(p)
	}
	out := make([]byte, 0, total)
	out = append(out, gopMagic...)
	if isLegacy {
		out = append(out, version, legacy)
	} else {
		out = append(out, containerV2, byte(len(codec)))
		out = append(out, codec...)
	}
	out = append(out, byte(pixfmt), byte(quality))
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], uint32(w))
	out = append(out, b4[:]...)
	binary.LittleEndian.PutUint32(b4[:], uint32(h))
	out = append(out, b4[:]...)
	binary.LittleEndian.PutUint32(b4[:], uint32(len(payloads)))
	out = append(out, b4[:]...)
	for i, p := range payloads {
		out = append(out, byte(types[i]))
		binary.LittleEndian.PutUint32(b4[:], uint32(len(p)))
		out = append(out, b4[:]...)
		out = append(out, p...)
	}
	return out
}

// framePayloads iterates the container's frame table, returning per-frame
// payload slices (views into data). hd must come from DecodeHeader (its
// tableOff locates the table past the version-dependent header).
func framePayloads(data []byte, hd Header) ([][]byte, error) {
	off := hd.tableOff
	if off <= 0 {
		return nil, fmt.Errorf("codec: header missing table offset")
	}
	payloads := make([][]byte, 0, hd.FrameCount)
	for i := 0; i < hd.FrameCount; i++ {
		if off+5 > len(data) {
			return nil, fmt.Errorf("codec: truncated frame table")
		}
		n := int(binary.LittleEndian.Uint32(data[off+1 : off+5]))
		if off+5+n > len(data) {
			return nil, fmt.Errorf("codec: truncated frame payload")
		}
		payloads = append(payloads, data[off+5:off+5+n])
		off += 5 + n
	}
	return payloads, nil
}
