package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/codec"
	"repro/internal/frame"
	"repro/internal/lossless"
	"repro/internal/quality"
	"repro/internal/vision"
)

// This file implements joint physical video compression (Section 5.1):
// pairs of GOPs from different logical videos whose cameras overlap are
// stored as three streams — the left remainder, a single merged overlap,
// and the right remainder — recoverable through the homography that
// relates the two camera planes (Algorithm 1 of the paper).
//
// Locking: joint compression is a cross-video mutation, so every entry
// point locks both videos through Store.withVideos (sorted-order
// acquisition). Reads of joint GOPs go through the snapshot path in
// reader.go and never take locks during reconstruction.

// MergeMode selects how overlapping pixels are combined.
type MergeMode string

const (
	// MergeUnprojected favors the unprojected (left) frame: the left
	// recovers losslessly, the right takes the projection error.
	MergeUnprojected MergeMode = "unprojected"
	// MergeMean averages the two frames, balancing recovered quality.
	MergeMean MergeMode = "mean"
)

// DupEpsilon is ε in Algorithm 1's duplicate check ‖H − I‖ ≤ ε: a
// homography this close to identity marks the GOPs as near-identical, and
// the right GOP is replaced with a pointer.
const DupEpsilon = 0.1

// JointResult describes the outcome of jointly compressing one GOP pair.
type JointResult struct {
	Compressed  bool
	Duplicate   bool
	BytesBefore int64
	BytesAfter  int64
	LeftPSNR    float64
	RightPSNR   float64
}

// jointPair holds the decoded state for one pair under compression.
type jointPair struct {
	vL, vR *VideoMeta
	pL, pR *PhysMeta
	gL, gR *GOPMeta
	fL, fR []*frame.Frame // decoded RGB
}

// JointCompressPair applies Algorithm 1 to one pair of GOPs identified by
// global references. The left/right role assignment may be swapped
// internally if the homography indicates the reverse ordering. Safe for
// concurrent use; it locks both videos for the duration.
func (s *Store) JointCompressPair(left, right GOPRef, merge MergeMode) (JointResult, error) {
	var res JointResult
	err := s.withVideos([]string{left.Video, right.Video}, func(held map[string]*videoState) error {
		var err error
		res, err = s.jointCompressPairHeld(held, left, right, merge)
		return err
	})
	return res, err
}

// jointCompressPairHeld runs Algorithm 1 with both videos' locks held.
func (s *Store) jointCompressPairHeld(held map[string]*videoState, left, right GOPRef, merge MergeMode) (JointResult, error) {
	var res JointResult
	if merge != MergeUnprojected && merge != MergeMean {
		return res, fmt.Errorf("core: unknown merge mode %q", merge)
	}
	if left.Video == right.Video {
		return res, fmt.Errorf("core: joint compression applies to different logical videos")
	}
	pair, err := s.loadPair(held, left, right)
	if err != nil {
		return res, err
	}
	if pair == nil {
		return res, nil // ineligible (already joint/dup)
	}
	res.BytesBefore = pair.gL.Bytes + pair.gR.Bytes

	// Mixed resolutions: upscale the lower-resolution side (Section
	// 5.1.2), remembering the original size for recovery.
	upscaledRight := false
	if pair.pL.Width*pair.pL.Height > pair.pR.Width*pair.pR.Height {
		for i, f := range pair.fR {
			pair.fR[i] = f.Resize(pair.pL.Width, pair.pL.Height)
		}
		upscaledRight = true
	} else if pair.pR.Width*pair.pR.Height > pair.pL.Width*pair.pL.Height {
		// Keep "left" the unprojected frame; swap roles instead of
		// upscaling the left.
		return s.jointCompressPairHeld(held, right, left, merge)
	}
	_ = upscaledRight

	h, ok := s.estimateHomography(pair.fL[0], pair.fR[0])
	if !ok {
		return res, nil // no homography found: abort silently (Algorithm 1)
	}
	// A duplicate has no orientation. Testing it first also keeps
	// identical GOPs out of the swap below: swapped, they estimate the
	// same homography, and a positive x translation would swap forever.
	if h.DistanceFromIdentity() <= DupEpsilon {
		return s.markDuplicateHeld(pair, left)
	}
	// Reversed orientation: the "left" frame is actually to the right.
	if tx := translationX(h); tx > 0 {
		return s.jointCompressPairHeld(held, right, left, merge)
	}
	return s.compressPairWithH(pair, h, merge)
}

// translationX extracts the effective x translation of the homography at
// the frame center (H maps left coords to right coords; negative means the
// right frame's content lies to the right).
func translationX(h vision.Homography) float64 {
	x, _ := h.Apply(0, 0)
	return x
}

// loadPair resolves and decodes both GOPs to RGB. Returns nil if either is
// ineligible for joint compression. Caller holds both videos' locks.
func (s *Store) loadPair(held map[string]*videoState, left, right GOPRef) (*jointPair, error) {
	vsL, pL, gL, err := resolveRefIn(held, left)
	if err != nil {
		return nil, err
	}
	vsR, pR, gR, err := resolveRefIn(held, right)
	if err != nil {
		return nil, err
	}
	if gL.Joint != nil || gR.Joint != nil || gL.DupOf != nil || gR.DupOf != nil {
		return nil, nil
	}
	if gL.Frames != gR.Frames {
		return nil, nil // temporal misalignment: not a joint candidate
	}
	if s.pins.pinned(vsL.meta.Name, pL, gL) || s.pins.pinned(vsR.meta.Name, pR, gR) {
		return nil, nil // a running read planned one of them: a later sweep
	}
	fL, err := s.loadRGBLocked(held, vsL, pL, gL)
	if err != nil {
		return nil, err
	}
	fR, err := s.loadRGBLocked(held, vsR, pR, gR)
	if err != nil {
		return nil, err
	}
	return &jointPair{vL: vsL.meta, vR: vsR.meta, pL: pL, pR: pR, gL: gL, gR: gR, fL: fL, fR: fR}, nil
}

// loadRGBLocked decodes one plain GOP to RGB frames under the held locks.
func (s *Store) loadRGBLocked(held map[string]*videoState, vs *videoState, p *PhysMeta, g *GOPMeta) ([]*frame.Frame, error) {
	snap, err := s.loadGOPLocked(context.Background(), held, vs, p, g)
	if err != nil {
		return nil, err
	}
	frames, _, _, err := decodeSnap(snap, 0, -1)
	if err != nil {
		return nil, err
	}
	for i, f := range frames {
		frames[i] = toRGB(f)
	}
	return frames, nil
}

// estimateHomography runs the feature pipeline: Harris keypoints, Lowe
// matching, RANSAC homography mapping left-frame coordinates onto
// right-frame coordinates.
func (s *Store) estimateHomography(fL, fR *frame.Frame) (vision.Homography, bool) {
	// 300 keypoints and a tight reprojection threshold: small-overlap
	// pairs (e.g. Waymo's ~15%) only share a narrow strip, so the match
	// pool must be deep enough to find correspondences there, and the
	// recovered-quality gate downstream is sensitive to small homography
	// bias.
	kL := vision.DetectKeypoints(fL, 300)
	kR := vision.DetectKeypoints(fR, 300)
	matches := vision.MatchKeypoints(kL, kR, vision.DefaultLoweRatio)
	rng := rand.New(rand.NewSource(42)) // deterministic RANSAC
	resRANSAC, ok := vision.RANSACHomography(kL, kR, matches, 800, 1.5, 12, rng)
	if !ok {
		return vision.Homography{}, false
	}
	return resRANSAC.H, true
}

// markDuplicateHeld replaces the right GOP with a pointer to the left
// (the near-identity duplicate short-circuit of Algorithm 1). Caller
// holds both videos' locks.
func (s *Store) markDuplicateHeld(pair *jointPair, left GOPRef) (JointResult, error) {
	res := JointResult{Duplicate: true, BytesBefore: pair.gL.Bytes + pair.gR.Bytes}
	if err := s.files.DeleteGOP(pair.vR.Name, pair.pR.Dir, pair.gR.Seq); err != nil {
		return res, err
	}
	pair.gR.DupOf = &left
	pair.gR.Bytes = 0
	// The right GOP now decodes to the LEFT GOP's pixels; its summary no
	// longer describes what a predicate read would scan. Maintain backfills
	// a fresh one from the deduplicated bytes.
	pair.gR.Summary = nil
	res.BytesAfter = pair.gL.Bytes
	res.Compressed = true
	res.LeftPSNR = quality.InfPSNR
	res.RightPSNR = quality.InfPSNR
	if err := s.savePhys(pair.vR.Name, pair.pR); err != nil {
		return res, err
	}
	return res, nil
}

// splits computes the even-aligned partition columns: xf is the left-frame
// column where the right frame's left edge lands; xg is the right-frame
// column where the left frame's right edge lands.
func splits(h vision.Homography, wL, hL, wR, hR int) (xf, xg int, ok bool) {
	hInv, err := h.Inverse()
	if err != nil {
		return 0, 0, false
	}
	minXf := float64(wL)
	for _, y := range []float64{0, float64(hR) / 2, float64(hR - 1)} {
		x, _ := hInv.Apply(0, y)
		if x < minXf {
			minXf = x
		}
	}
	maxXg := 0.0
	for _, y := range []float64{0, float64(hL) / 2, float64(hL - 1)} {
		x, _ := h.Apply(float64(wL-1), y)
		if x > maxXg {
			maxXg = x
		}
	}
	xf = int(minXf) &^ 1
	xg = (int(maxXg+1) + 1) &^ 1
	if xg > wR {
		xg = wR &^ 1
	}
	if xf <= 0 || xf >= wL || xg <= 0 || xg > wR {
		return 0, 0, false // no usable horizontal overlap
	}
	return xf, xg, true
}

// compressPairWithH performs the per-frame partition/merge/verify/encode
// loop of Algorithm 1. Caller holds both videos' locks.
func (s *Store) compressPairWithH(pair *jointPair, h vision.Homography, merge MergeMode) (JointResult, error) {
	res := JointResult{BytesBefore: pair.gL.Bytes + pair.gR.Bytes}
	wL, hL := pair.fL[0].Width, pair.fL[0].Height
	wR, hR := pair.fR[0].Width, pair.fR[0].Height
	xf, xg, ok := splits(h, wL, hL, wR, hR)
	if !ok {
		return res, nil
	}
	hInv, err := h.Inverse()
	if err != nil {
		return res, nil
	}

	n := len(pair.fL)
	leftFrames := make([]*frame.Frame, 0, n)
	overlapFrames := make([]*frame.Frame, 0, n)
	rightFrames := make([]*frame.Frame, 0, n)
	var sumL, sumR float64
	reestimated := false

	for i := 0; i < n; i++ {
		fl, fr := pair.fL[i], pair.fR[i]
		lf, of, rf := partitionPair(fl, fr, h, xf, xg, merge)
		// Verify: reconstruct both frames and check recovered quality
		// (Section 5.1.2's guard against outdated or bad homographies).
		recL := reconstructLeft(lf, of, wL, hL)
		recR := reconstructRight(rf, of, hInv, xf, xg, wR, hR)
		psnrL, _ := quality.PSNR(fl, recL)
		psnrR, _ := quality.PSNR(fr, recR)
		if psnrL < jointMinPSNR || psnrR < jointMinPSNR {
			if !reestimated {
				// Re-estimate the homography from the failing frame. The
				// split columns change with it, so the whole GOP restarts:
				// all frames of a stream must share dimensions.
				if h2, ok2 := s.estimateHomography(fl, fr); ok2 {
					if xf2, xg2, ok3 := splits(h2, wL, hL, wR, hR); ok3 {
						h, xf, xg = h2, xf2, xg2
						if hInv2, err := h.Inverse(); err == nil {
							hInv = hInv2
						}
						reestimated = true
						leftFrames = leftFrames[:0]
						overlapFrames = overlapFrames[:0]
						rightFrames = rightFrames[:0]
						sumL, sumR = 0, 0
						i = -1
						continue
					}
				}
				reestimated = true
			}
			return res, nil // abort joint compression for this pair
		}
		sumL += psnrL
		sumR += psnrR
		leftFrames = append(leftFrames, lf)
		overlapFrames = append(overlapFrames, of)
		rightFrames = append(rightFrames, rf)
	}

	// Encode the three streams with the left side's physical parameters.
	enc := func(frames []*frame.Frame, p *PhysMeta) ([]byte, error) {
		data, _, err := codec.EncodeGOP(frames, p.Codec, p.Quality)
		return data, err
	}
	leftData, err := enc(leftFrames, pair.pL)
	if err != nil {
		return res, err
	}
	overlapData, err := enc(overlapFrames, pair.pL)
	if err != nil {
		return res, err
	}
	rightData, err := enc(rightFrames, pair.pR)
	if err != nil {
		return res, err
	}

	// Persist: the left file carries [left | overlap]; the right file
	// carries only the remainder.
	leftFile := packJointStreams(leftData, overlapData)
	if err := s.files.WriteGOP(pair.vL.Name, pair.pL.Dir, pair.gL.Seq, leftFile); err != nil {
		return res, err
	}
	rightFile := packJointStreams(rightData)
	if err := s.files.WriteGOP(pair.vR.Name, pair.pR.Dir, pair.gR.Seq, rightFile); err != nil {
		return res, err
	}
	leftRef := GOPRef{pair.vL.Name, pair.pL.ID, pair.gL.Seq}
	rightRef := GOPRef{pair.vR.Name, pair.pR.ID, pair.gR.Seq}
	pair.gL.Joint = &GOPJoint{Role: "left", Partner: rightRef, H: h, SplitL: xf, SplitR: xg, Merge: string(merge)}
	pair.gR.Joint = &GOPJoint{Role: "right", Partner: leftRef, H: h, SplitL: xf, SplitR: xg, Merge: string(merge)}
	pair.gL.Bytes = int64(len(leftFile))
	pair.gR.Bytes = int64(len(rightFile))
	// Joint reconstruction changes both GOPs' decoded pixels (merged
	// overlap, re-encode), so the ingest-time summaries are no longer
	// sound bounds; drop them and let Maintain backfill.
	pair.gL.Summary = nil
	pair.gR.Summary = nil
	if err := s.savePhys(pair.vL.Name, pair.pL); err != nil {
		return res, err
	}
	if err := s.savePhys(pair.vR.Name, pair.pR); err != nil {
		return res, err
	}
	res.Compressed = true
	res.BytesAfter = pair.gL.Bytes + pair.gR.Bytes
	res.LeftPSNR = sumL / float64(n)
	res.RightPSNR = sumR / float64(n)
	return res, nil
}

// partitionPair splits one frame pair into left, merged-overlap, and right
// subframes (the `partition` function of Algorithm 1).
func partitionPair(fl, fr *frame.Frame, h vision.Homography, xf, xg int, merge MergeMode) (left, overlap, right *frame.Frame) {
	wL, hL := fl.Width, fl.Height
	wR := fr.Width
	left, _ = fl.Crop(frame.Rect{X0: 0, Y0: 0, X1: xf, Y1: hL})
	ovL, _ := fl.Crop(frame.Rect{X0: xf, Y0: 0, X1: wL, Y1: hL})
	if merge == MergeMean {
		// Project the right frame into left space and average where valid.
		warped, mask := vision.Warp(fr, h, wL, hL)
		for y := 0; y < hL; y++ {
			for x := xf; x < wL; x++ {
				if !mask[y*wL+x] {
					continue
				}
				for c := 0; c < 3; c++ {
					li := (y*ovL.Width + (x - xf)) * 3
					wi := (y*wL + x) * 3
					ovL.Data[li+c] = byte((int(ovL.Data[li+c]) + int(warped.Data[wi+c]) + 1) / 2)
				}
			}
		}
	}
	right, _ = fr.Crop(frame.Rect{X0: xg, Y0: 0, X1: wR, Y1: fr.Height})
	return left, ovL, right
}

// reconstructLeft reassembles the left frame from its two streams.
func reconstructLeft(left, overlap *frame.Frame, w, h int) *frame.Frame {
	out := frame.New(w, h, frame.RGB)
	l := left
	if l.Format != frame.RGB {
		l = l.Convert(frame.RGB)
	}
	o := overlap
	if o.Format != frame.RGB {
		o = o.Convert(frame.RGB)
	}
	out.Paste(l, 0, 0)
	out.Paste(o, l.Width, 0)
	return out
}

// reconstructRight reassembles the right frame: its stored remainder plus
// the overlap warped back through the inverse homography.
func reconstructRight(right, overlap *frame.Frame, hInv vision.Homography, xf, xg, w, h int) *frame.Frame {
	out := frame.New(w, h, frame.RGB)
	r := right
	if r.Format != frame.RGB {
		r = r.Convert(frame.RGB)
	}
	o := overlap
	if o.Format != frame.RGB {
		o = o.Convert(frame.RGB)
	}
	// Place the overlap into a full left-space canvas at column xf, then
	// warp into right space.
	leftSpace := frame.New(xf+o.Width, o.Height, frame.RGB)
	leftSpace.Paste(o, xf, 0)
	warped, mask := vision.Warp(leftSpace, hInv, w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < xg && x < w; x++ {
			i := y*w + x
			if !mask[i] {
				continue
			}
			copy(out.Data[i*3:i*3+3], warped.Data[i*3:i*3+3])
		}
	}
	out.Paste(r, xg, 0)
	return out
}

// packJointStreams frames one or two encoded streams into a single file:
// u32 count, then (u32 length, payload) per stream.
func packJointStreams(streams ...[]byte) []byte {
	total := 4
	for _, s := range streams {
		total += 4 + len(s)
	}
	out := make([]byte, 0, total)
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], uint32(len(streams)))
	out = append(out, b4[:]...)
	for _, s := range streams {
		binary.LittleEndian.PutUint32(b4[:], uint32(len(s)))
		out = append(out, b4[:]...)
		out = append(out, s...)
	}
	return out
}

// unpackJointStreams reverses packJointStreams.
func unpackJointStreams(data []byte) ([][]byte, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("core: truncated joint container")
	}
	n := int(binary.LittleEndian.Uint32(data[:4]))
	if n < 1 || n > 4 {
		return nil, fmt.Errorf("core: implausible joint stream count %d", n)
	}
	off := 4
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		if off+4 > len(data) {
			return nil, fmt.Errorf("core: truncated joint container")
		}
		l := int(binary.LittleEndian.Uint32(data[off : off+4]))
		off += 4
		if off+l > len(data) {
			return nil, fmt.Errorf("core: truncated joint stream")
		}
		out = append(out, data[off:off+l])
		off += l
	}
	return out, nil
}

// decodeJointSnap reconstructs the frames of a snapshotted jointly
// compressed GOP (either role), reversing the partition applied at
// compression time. Pure function of the snapshot — safe on the worker
// pool. Returns the reconstructed frames, the number of GOP streams
// decoded, and the codec of the primary stream (for per-codec metrics).
func decodeJointSnap(snap gopSnap) ([]*frame.Frame, int, codec.ID, error) {
	j := snap.joint
	data := snap.data
	if lossless.IsCompressed(data) {
		var err error
		if data, err = lossless.Decompress(data); err != nil {
			return nil, 0, "", err
		}
	}
	streams, err := unpackJointStreams(data)
	if err != nil {
		return nil, 0, "", err
	}
	if j.Role == "left" {
		if len(streams) != 2 {
			return nil, 0, "", fmt.Errorf("core: left joint GOP has %d streams", len(streams))
		}
		leftFrames, hd, err := codec.DecodeGOP(streams[0])
		if err != nil {
			return nil, 0, hd.Codec, err
		}
		overlapFrames, _, err := codec.DecodeGOP(streams[1])
		if err != nil {
			return nil, 0, hd.Codec, err
		}
		out := make([]*frame.Frame, len(leftFrames))
		for i := range leftFrames {
			out[i] = reconstructLeft(leftFrames[i], overlapFrames[i], snap.width, snap.height)
		}
		return out, 2, hd.Codec, nil
	}
	// Right role: the overlap stream lives in the partner's file,
	// snapshotted alongside ours.
	partnerData := snap.partner
	if partnerData == nil {
		return nil, 0, "", fmt.Errorf("core: right joint GOP snapshot missing partner stream")
	}
	if lossless.IsCompressed(partnerData) {
		if partnerData, err = lossless.Decompress(partnerData); err != nil {
			return nil, 0, "", err
		}
	}
	partnerStreams, err := unpackJointStreams(partnerData)
	if err != nil {
		return nil, 0, "", err
	}
	if len(partnerStreams) != 2 {
		return nil, 0, "", fmt.Errorf("core: joint partner has %d streams", len(partnerStreams))
	}
	rightFrames, hd, err := codec.DecodeGOP(streams[0])
	if err != nil {
		return nil, 0, hd.Codec, err
	}
	overlapFrames, _, err := codec.DecodeGOP(partnerStreams[1])
	if err != nil {
		return nil, 0, hd.Codec, err
	}
	hInv, err := j.H.Inverse()
	if err != nil {
		return nil, 0, hd.Codec, err
	}
	out := make([]*frame.Frame, len(rightFrames))
	for i := range rightFrames {
		out[i] = reconstructRight(rightFrames[i], overlapFrames[i], hInv, j.SplitL, j.SplitR, snap.width, snap.height)
	}
	return out, 2, hd.Codec, nil
}
