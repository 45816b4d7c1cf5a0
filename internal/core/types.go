// Package core implements the VSS storage manager — the paper's primary
// contribution. It coordinates the substrates (codec, catalog, storage,
// index, cost, quality, vision, cluster, smt) to provide the four-operation
// API of Figure 1: create, delete, write, and read over logical videos,
// with spatial, temporal, and physical parameters.
//
// Responsibilities, following the paper:
//
//   - Arrange written video on disk as sequences of independently
//     decodable GOPs (Section 2).
//   - Answer reads from a minimal-cost subset of cached materialized
//     views, selected by a solver over transcode + look-back costs and
//     gated by a PSNR quality model (Section 3).
//   - Cache read results as new physical videos and evict GOP "pages"
//     with the LRU_VSS policy under a per-video storage budget
//     (Section 4).
//   - Reduce storage with joint compression of overlapping streams,
//     deferred lossless compression, and compaction (Section 5).
package core

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/frame"
	"repro/internal/vision"
)

// NRect is a rectangle in normalized [0,1] coordinates relative to the
// full frame of a logical video. Regions of interest are stored normalized
// so they compose across the differing resolutions of physical videos.
type NRect struct {
	X0, Y0, X1, Y1 float64
}

// FullNRect covers the entire frame.
func FullNRect() NRect { return NRect{0, 0, 1, 1} }

// IsFull reports whether the rect covers (essentially) the whole frame.
func (r NRect) IsFull() bool {
	return r.X0 <= 1e-9 && r.Y0 <= 1e-9 && r.X1 >= 1-1e-9 && r.Y1 >= 1-1e-9
}

// Contains reports whether o lies within r (with a small tolerance for
// rounding through pixel space).
func (r NRect) Contains(o NRect) bool {
	const eps = 1e-6
	return r.X0 <= o.X0+eps && r.Y0 <= o.Y0+eps && r.X1 >= o.X1-eps && r.Y1 >= o.Y1-eps
}

// Empty reports whether the rect contains no area.
func (r NRect) Empty() bool { return r.X1 <= r.X0 || r.Y1 <= r.Y0 }

// Pixels converts the normalized rect to a pixel rect at a resolution.
func (r NRect) Pixels(w, h int) frame.Rect {
	return frame.Rect{
		X0: int(r.X0*float64(w) + 0.5),
		Y0: int(r.Y0*float64(h) + 0.5),
		X1: int(r.X1*float64(w) + 0.5),
		Y1: int(r.Y1*float64(h) + 0.5),
	}
}

// Normalize converts a pixel rect at a resolution into normalized space.
func Normalize(r frame.Rect, w, h int) NRect {
	return NRect{
		X0: float64(r.X0) / float64(w),
		Y0: float64(r.Y0) / float64(h),
		X1: float64(r.X1) / float64(w),
		Y1: float64(r.Y1) / float64(h),
	}
}

// Spatial carries the S parameters of a read or write: output resolution
// and region of interest.
type Spatial struct {
	// Width, Height select the output resolution; zero means the source
	// resolution.
	Width, Height int
	// ROI selects a region of interest in pixel coordinates at the
	// requested resolution; nil means the full frame.
	ROI *frame.Rect
}

// Temporal carries the T parameters: the half-open interval [Start, End)
// in seconds and the output frame rate.
type Temporal struct {
	Start float64
	// End of the interval; <= 0 means the end of the video.
	End float64
	// FPS resamples the output frame rate; zero keeps the source rate.
	FPS int
}

// Physical carries the P parameters: frame layout, compression codec, and
// quality.
type Physical struct {
	// Codec selects the output compression; codec.Raw returns decoded
	// frames.
	Codec codec.ID
	// Format is the pixel layout for raw output; the zero value is
	// frame.RGB. Compressed output is always encoded from YUV420. The
	// output size must fit the layout's chroma subsampling: an even width
	// for YUV422, an even width and height for YUV420 and for every
	// compressed codec. Other sizes are ErrInvalidSpec.
	Format frame.PixelFormat
	// Quality is the encode quality preset for compressed output
	// (1..100; 0 means codec.DefaultQuality).
	Quality int
	// MinPSNR is the quality cutoff ε: fragments whose expected quality
	// (vs the originally written video) falls below it are not used.
	// Zero means the system default (40 dB, "lossless").
	MinPSNR float64
}

// ReadSpec bundles the parameters of a read operation.
type ReadSpec struct {
	S Spatial
	T Temporal
	P Physical
}

// WriteSpec describes how written frames are to be stored.
type WriteSpec struct {
	FPS     int
	Codec   codec.ID
	Quality int // 0 = codec.DefaultQuality
}

// GOPRef names one stored GOP globally.
type GOPRef struct {
	Video string `json:"video"`
	Phys  int    `json:"phys"`
	Seq   int    `json:"seq"`
}

// GOPJoint records that a GOP participates in joint compression
// (Section 5.1). The left GOP owns the merged overlap stream; the right
// GOP stores only its non-overlapping remainder plus the transform needed
// to recover its overlap from the partner.
type GOPJoint struct {
	Role    string            `json:"role"` // "left" or "right"
	Partner GOPRef            `json:"partner"`
	H       vision.Homography `json:"h"`       // left-frame coords -> right-frame coords
	SplitL  int               `json:"split_l"` // left columns [SplitL, W) are in the overlap stream
	SplitR  int               `json:"split_r"` // right columns [0, SplitR) recover from the overlap
	Merge   string            `json:"merge"`   // "unprojected" or "mean"
}

// GOPMeta is the catalog record for one GOP "page".
type GOPMeta struct {
	Seq        int       `json:"seq"`
	StartFrame int       `json:"start_frame"` // offset within the physical video
	Frames     int       `json:"frames"`
	Bytes      int64     `json:"bytes"`
	Lossless   int       `json:"lossless,omitempty"` // deferred-compression level (0 = plain)
	LRU        int64     `json:"lru"`                // last-use tick
	Joint      *GOPJoint `json:"joint,omitempty"`
	DupOf      *GOPRef   `json:"dup_of,omitempty"` // near-identical duplicate pointer
	// Summary is the GOP's feature summary for predicate-read planning
	// (summary.go). nil means unknown — pre-summary stores, decode-back
	// failures, or GOPs whose decoded bytes were changed by joint
	// compression or duplicate elision; predicate reads decode such GOPs
	// conservatively and Maintain backfills them.
	Summary *GOPSummary `json:"summary,omitempty"`
}

// PhysMeta is the catalog record for a physical video (materialized view).
type PhysMeta struct {
	ID      int               `json:"id"`
	Dir     string            `json:"dir"`
	Width   int               `json:"width"`
	Height  int               `json:"height"`
	FPS     int               `json:"fps"`
	Codec   codec.ID          `json:"codec"`
	PixFmt  frame.PixelFormat `json:"pixfmt"`
	Quality int               `json:"quality"`
	ROI     NRect             `json:"roi"`   // region of the source frame this view covers
	Start   float64           `json:"start"` // position on the logical timeline (seconds)
	MSE     float64           `json:"mse"`   // accumulated MSE bound vs the original
	Orig    bool              `json:"orig"`
	GOPs    []GOPMeta         `json:"gops"`
}

// End returns the end time of the physical video on the logical timeline.
func (p *PhysMeta) End() float64 {
	frames := 0
	for _, g := range p.GOPs {
		if g.StartFrame+g.Frames > frames {
			frames = g.StartFrame + g.Frames
		}
	}
	return p.Start + float64(frames)/float64(p.FPS)
}

// Bytes returns the total stored size of the physical video.
func (p *PhysMeta) Bytes() int64 {
	var total int64
	for _, g := range p.GOPs {
		total += g.Bytes
	}
	return total
}

// gopSpan returns the time interval covered by GOP g.
func (p *PhysMeta) gopSpan(g *GOPMeta) (float64, float64) {
	fps := float64(p.FPS)
	return p.Start + float64(g.StartFrame)/fps, p.Start + float64(g.StartFrame+g.Frames)/fps
}

// VideoMeta is the catalog record for a logical video.
type VideoMeta struct {
	Name     string  `json:"name"`
	Budget   int64   `json:"budget"` // bytes; 0 = unlimited
	NextPhys int     `json:"next_phys"`
	Clock    int64   `json:"clock"` // LRU tick counter
	Original int     `json:"original"`
	FPS      int     `json:"fps"`
	Width    int     `json:"width"`
	Height   int     `json:"height"`
	Duration float64 `json:"duration"`
}

func physKey(video string, id int) string { return fmt.Sprintf("%s/%06d", video, id) }
