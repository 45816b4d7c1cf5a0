package core

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/detect"
	"repro/internal/frame"
)

// This file implements the per-GOP feature summaries behind predicate
// reads: at ingest the encode workers analyze each GOP's reconstructed
// frames (motion energy, vehicle detections, dominant colors) and persist
// a small summary next to the GOP's catalog record. At query time the
// planner consults the summary bounds to skip GOPs that provably cannot
// contain a matching frame — the incremental-view-maintenance idea of
// answering queries from write-time state instead of rescanning.
//
// Soundness contract: every bound in a GOPSummary is computed from the
// SAME per-frame analysis (analyzeRGB) that exact predicate evaluation
// uses at query time, over the SAME reconstructed pixels a query decodes.
// Summaries are therefore exact over-approximations — a predicate pruned
// by summary bounds is false on every frame of the GOP. Any transform
// that can change a GOP's decoded bytes (joint compression, duplicate
// elision) clears its summary; Maintain backfills cleared or pre-summary
// GOPs incrementally, and a GOP without a summary is never pruned.

// Detection is one detected vehicle: its bounding box and dominant color.
type Detection = detect.Detection

// ColorDistance is the Euclidean distance between two RGB colors, the
// metric predicate color terms use.
func ColorDistance(c, query [3]float64) float64 { return detect.ColorDistance(c, query) }

// FrameInfo is the per-frame content record predicates evaluate against.
type FrameInfo struct {
	// Motion is the mean absolute per-byte difference between this
	// frame and the previous frame of its GOP, measured in RGB space
	// (0..255). The first frame of every GOP has Motion 0: summaries
	// must be recomputable from a single GOP's bytes, so motion never
	// reaches across a GOP boundary.
	Motion float64
	// Detections are the frame's detected vehicles, in detect.Vehicles
	// order (left to right).
	Detections []Detection
}

// Count returns the number of detections, the value of predicate `count`
// terms.
func (fi FrameInfo) Count() int { return len(fi.Detections) }

// AnalyzeFrames computes the per-frame content records for one GOP's
// decoded frames. It is a pure, deterministic function of the pixel data;
// ingest-time summarization, query-time exact evaluation, and client-side
// filtering of a raw RGB read all agree because they all run through it.
func AnalyzeFrames(frames []*frame.Frame) []FrameInfo {
	_, infos := analyzeRGB(frames, false)
	return infos
}

// analyzeRGB is the one per-frame analysis: it converts each frame to RGB
// (a no-op for RGB input) and computes its FrameInfo. With keep the RGB
// conversions are returned, so callers that also deliver frames
// (ReadWhere) convert exactly once — and with the same frame.Convert the
// raw read path uses, keeping predicate results byte-identical to a full
// raw RGB read. Without it they go through two ping-pong scratch frames
// (current plus the predecessor motion needs) instead of one allocation
// per frame, and the returned slice is nil.
func analyzeRGB(frames []*frame.Frame, keep bool) ([]*frame.Frame, []FrameInfo) {
	var rgb []*frame.Frame
	if keep {
		rgb = make([]*frame.Frame, len(frames))
	}
	var scratch [2]*frame.Frame
	infos := make([]FrameInfo, len(frames))
	var prev *frame.Frame
	for i, f := range frames {
		cur := f
		if f.Format != frame.RGB {
			var dst *frame.Frame // nil: a fresh frame the caller keeps
			if !keep {
				dst = scratch[i&1]
			}
			cur = f.ConvertInto(dst, frame.RGB)
			scratch[i&1] = cur
		}
		if keep {
			rgb[i] = cur
		}
		if i > 0 {
			infos[i].Motion = meanAbsDiff(prev.Data, cur.Data)
		}
		infos[i].Detections = detect.Vehicles(cur)
		prev = cur
	}
	return rgb, infos
}

// toRGB is the one conversion predicate reads deliver frames through:
// RGB input as is, anything else through frame.Convert.
func toRGB(f *frame.Frame) *frame.Frame {
	if f.Format == frame.RGB {
		return f
	}
	return f.Convert(frame.RGB)
}

// meanAbsDiff is the mean absolute byte difference between two equal-size
// pixel buffers (motion energy). Static regions dominate surveillance
// footage, so 8-byte words are compared first and only differing words pay
// the per-byte loop; the sum is exactly the naive per-byte result.
func meanAbsDiff(a, b []byte) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	// abs(d) is computed branchlessly ((d^m)-m with m the sign mask):
	// which bytes differ is data-dependent noise, so a sign branch here
	// mispredicts constantly on moving content.
	var sum int64
	i := 0
	for ; i+8 <= n; i += 8 {
		if binary.LittleEndian.Uint64(a[i:]) == binary.LittleEndian.Uint64(b[i:]) {
			continue
		}
		for j := i; j < i+8; j++ {
			d := int64(a[j]) - int64(b[j])
			m := d >> 63
			sum += (d ^ m) - m
		}
	}
	for ; i < n; i++ {
		d := int64(a[i]) - int64(b[i])
		m := d >> 63
		sum += (d ^ m) - m
	}
	return float64(sum) / float64(n)
}

// colorLevels quantizes each RGB channel into colorLevels buckets for the
// summary's dominant-color histogram (the same 4-level grid the detector's
// dominant-color estimate uses).
const colorLevels = 4

// colorCell maps a color to its histogram cell index in [0, 64).
func colorCell(c [3]float64) uint {
	cell := uint(0)
	for _, v := range c {
		lvl := int(v) * colorLevels / 256
		if lvl < 0 {
			lvl = 0
		}
		if lvl >= colorLevels {
			lvl = colorLevels - 1
		}
		cell = cell*colorLevels + uint(lvl)
	}
	return cell
}

// cellMinDistance returns the minimum Euclidean distance from query to any
// color inside histogram cell: 0 when the query lies in the cell, else the
// distance to the cell cube's nearest face. It lower-bounds ColorDistance
// for every detection color the cell covers, which is what makes pruning
// on it sound.
func cellMinDistance(cell uint, query [3]float64) float64 {
	const width = 256.0 / colorLevels
	var sum float64
	for ch := 2; ch >= 0; ch-- {
		lvl := float64(cell % colorLevels)
		cell /= colorLevels
		lo, hi := lvl*width, (lvl+1)*width
		q := query[ch]
		switch {
		case q < lo:
			sum += (lo - q) * (lo - q)
		case q > hi:
			sum += (q - hi) * (q - hi)
		}
	}
	return math.Sqrt(sum)
}

// GOPSummary is the persisted feature summary of one GOP: exact bounds
// over its frames' FrameInfo values plus a dominant-color histogram
// bitmap. All bounds are inclusive.
type GOPSummary struct {
	MinMotion float64 // lowest per-frame motion energy (always 0: frame 0)
	MaxMotion float64 // highest per-frame motion energy
	MinCount  int     // fewest detections in any frame
	MaxCount  int     // most detections in any frame
	// ColorBits has bit colorCell(c) set for every detection color c in
	// the GOP (4x4x4 RGB histogram).
	ColorBits uint64
}

// Summarize folds per-frame records into a GOP summary. Returns nil for
// an empty GOP.
func Summarize(infos []FrameInfo) *GOPSummary {
	if len(infos) == 0 {
		return nil
	}
	s := &GOPSummary{MinMotion: math.Inf(1), MinCount: int(math.MaxInt32)}
	for _, fi := range infos {
		s.MinMotion = math.Min(s.MinMotion, fi.Motion)
		s.MaxMotion = math.Max(s.MaxMotion, fi.Motion)
		n := fi.Count()
		if n < s.MinCount {
			s.MinCount = n
		}
		if n > s.MaxCount {
			s.MaxCount = n
		}
		for _, d := range fi.Detections {
			s.ColorBits |= 1 << colorCell(d.Color)
		}
	}
	return s
}

// summarizeFrames analyzes and folds in one step (ingest, backfill).
func summarizeFrames(frames []*frame.Frame) *GOPSummary {
	return Summarize(AnalyzeFrames(frames))
}

// The persisted encoding of a GOPSummary: a fixed-layout versioned record
// with a trailing checksum, so a corrupt catalog value is rejected by
// DecodeSummary instead of silently mispruning reads.
//
//	[0]     magic 'F' (feature summary)
//	[1]     version (1)
//	[2:10]  MinMotion, float64 bits, big endian
//	[10:18] MaxMotion
//	[18:22] MinCount, uint32 big endian
//	[22:26] MaxCount
//	[26:34] ColorBits
//	[34:38] CRC-32 (IEEE) of bytes [0:34]
const (
	summaryMagic   = 'F'
	summaryVersion = 1
	summaryLen     = 38
)

// EncodeSummary serializes a summary in the persisted binary format.
func EncodeSummary(s *GOPSummary) []byte {
	b := make([]byte, summaryLen)
	b[0] = summaryMagic
	b[1] = summaryVersion
	binary.BigEndian.PutUint64(b[2:], math.Float64bits(s.MinMotion))
	binary.BigEndian.PutUint64(b[10:], math.Float64bits(s.MaxMotion))
	binary.BigEndian.PutUint32(b[18:], uint32(s.MinCount))
	binary.BigEndian.PutUint32(b[22:], uint32(s.MaxCount))
	binary.BigEndian.PutUint64(b[26:], s.ColorBits)
	binary.BigEndian.PutUint32(b[34:], crc32.ChecksumIEEE(b[:34]))
	return b
}

// DecodeSummary parses the persisted binary format. It never panics:
// corrupt input — wrong length, magic, version, checksum, or values that
// violate the summary invariants — returns an error, and the caller
// treats the GOP as summaryless (conservative full decode).
func DecodeSummary(b []byte) (*GOPSummary, error) {
	if len(b) != summaryLen {
		return nil, fmt.Errorf("core: summary length %d, want %d", len(b), summaryLen)
	}
	if b[0] != summaryMagic {
		return nil, fmt.Errorf("core: bad summary magic 0x%02x", b[0])
	}
	if b[1] != summaryVersion {
		return nil, fmt.Errorf("core: unknown summary version %d", b[1])
	}
	if got, want := crc32.ChecksumIEEE(b[:34]), binary.BigEndian.Uint32(b[34:]); got != want {
		return nil, fmt.Errorf("core: summary checksum mismatch")
	}
	s := &GOPSummary{
		MinMotion: math.Float64frombits(binary.BigEndian.Uint64(b[2:])),
		MaxMotion: math.Float64frombits(binary.BigEndian.Uint64(b[10:])),
		MinCount:  int(binary.BigEndian.Uint32(b[18:])),
		MaxCount:  int(binary.BigEndian.Uint32(b[22:])),
		ColorBits: binary.BigEndian.Uint64(b[26:]),
	}
	if math.IsNaN(s.MinMotion) || math.IsInf(s.MinMotion, 0) ||
		math.IsNaN(s.MaxMotion) || math.IsInf(s.MaxMotion, 0) {
		return nil, fmt.Errorf("core: summary motion bounds not finite")
	}
	if s.MinMotion < 0 || s.MinMotion > s.MaxMotion {
		return nil, fmt.Errorf("core: summary motion bounds inverted")
	}
	if s.MinCount < 0 || s.MinCount > s.MaxCount {
		return nil, fmt.Errorf("core: summary count bounds inverted")
	}
	if s.MaxCount == 0 && s.ColorBits != 0 {
		return nil, fmt.Errorf("core: summary has colors without detections")
	}
	return s, nil
}

// MarshalJSON persists the summary through the binary codec (base64 in
// the catalog's JSON rows), so the catalog round-trips through the same
// validated format DecodeSummary guards.
func (s *GOPSummary) MarshalJSON() ([]byte, error) {
	enc := base64.StdEncoding.EncodeToString(EncodeSummary(s))
	return []byte(fmt.Sprintf("%q", enc)), nil
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (s *GOPSummary) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("core: summary JSON must be a string")
	}
	raw, err := base64.StdEncoding.DecodeString(string(b[1 : len(b)-1]))
	if err != nil {
		return err
	}
	dec, err := DecodeSummary(raw)
	if err != nil {
		return err
	}
	*s = *dec
	return nil
}
