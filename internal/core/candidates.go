package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/frame"
	"repro/internal/index"
	"repro/internal/vision"
)

// This file implements joint-compression candidate selection (Section
// 5.1.3 and Figure 9): fragments are fingerprinted with color histograms,
// clustered incrementally with BIRCH, and — tightest clusters first —
// searched for pairs sharing many unambiguous feature correspondences.
//
// Locking: discovery visits one video at a time under that video's lock
// (fingerprinting decodes only first frames); the matching phase runs on
// the decoded copies with no locks held; compression locks each candidate
// pair through the ordered-acquisition path in joint.go.

// Candidate selection parameters from the paper's prototype: a pair is
// sufficiently related at m = 20 nearby, unambiguous correspondences.
const (
	candidateMinMatches = 20
	fingerprintBins     = 8
	fingerprintThumb    = 4
	// clusterThreshold is the BIRCH radius bound in fingerprint space
	// (histograms are unit-mass per channel, so distances live in [0, ~2]).
	clusterThreshold = 0.35
)

// PairCandidate names two GOPs from different logical videos proposed for
// joint compression.
type PairCandidate struct {
	A, B    GOPRef
	Matches int
}

// JointStats summarizes a joint-compression sweep.
type JointStats struct {
	Scanned     int // GOPs fingerprinted
	Pairs       int // candidate pairs proposed
	Compressed  int
	Duplicates  int
	Aborted     int
	BytesBefore int64
	BytesAfter  int64
}

// FindJointCandidates runs the discovery pipeline over the original
// physical videos of every logical video and returns proposed pairs. It
// never proposes GOPs already jointly compressed or deduplicated. Safe
// for concurrent use; it holds at most one video lock at a time.
func (s *Store) FindJointCandidates() ([]PairCandidate, int, error) {
	type gopInfo struct {
		ref   GOPRef
		first *frame.Frame
	}
	fp, err := index.NewFingerprints(clusterThreshold)
	if err != nil {
		return nil, 0, err
	}
	// One video at a time: snapshot its original's GOP bytes under that
	// video's lock only, then decode first frames and fingerprint with no
	// locks held (same pattern as the read path) — discovery never stalls
	// foreground traffic, and at most one video's snapshots are resident.
	var infos []gopInfo
	for _, name := range s.videoNames() {
		vs := s.acquire(name)
		if vs == nil {
			continue // deleted while we iterated
		}
		type pending struct {
			ref  GOPRef
			snap gopSnap
		}
		var snaps []pending
		func() {
			defer vs.mu.Unlock()
			held := map[string]*videoState{name: vs}
			p := vs.original()
			if p == nil {
				return
			}
			for i := range p.GOPs {
				g := &p.GOPs[i]
				if g.Joint != nil || g.DupOf != nil {
					continue
				}
				snap, err := s.loadGOPLocked(context.Background(), held, vs, p, g)
				if err != nil {
					continue // unreadable page: skip it, not the sweep
				}
				snaps = append(snaps, pending{GOPRef{name, p.ID, g.Seq}, snap})
			}
		}()
		// Decode first frames on the worker pool (one I-frame each).
		firsts := make([]*frame.Frame, len(snaps))
		if err := s.runJobs(context.Background(), len(snaps), func(i int) error {
			frames, _, _, err := decodeSnap(snaps[i].snap, 0, 1)
			if err != nil {
				return err
			}
			if len(frames) == 0 {
				return fmt.Errorf("core: empty GOP %s/%d/%d", snaps[i].ref.Video, snaps[i].ref.Phys, snaps[i].ref.Seq)
			}
			firsts[i] = toRGB(frames[0])
			return nil
		}); err != nil {
			return nil, 0, err
		}
		// Fingerprint sequentially (the BIRCH index is not concurrent).
		for i, sn := range snaps {
			if err := fp.Add(len(infos), vision.Fingerprint(firsts[i], fingerprintBins, fingerprintThumb)); err != nil {
				return nil, 0, err
			}
			infos = append(infos, gopInfo{ref: sn.ref, first: firsts[i]})
		}
	}

	// Keypoints are computed lazily per GOP and cached for the sweep.
	// This phase works on decoded first frames only — no locks.
	kps := make(map[int][]vision.Keypoint)
	keypointsOf := func(id int) []vision.Keypoint {
		if k, ok := kps[id]; ok {
			return k
		}
		k := vision.DetectKeypoints(infos[id].first, 300)
		kps[id] = k
		return k
	}

	// Collect geometrically verified candidates within each cluster, then
	// pair greedily by correspondence strength: a GOP joins at most one
	// pair, and stronger matches claim their partners first.
	type scored struct {
		a, b    int
		inliers int
	}
	var all []scored
	rng := rand.New(rand.NewSource(97))
	for _, group := range fp.CandidateGroups(2) {
		sort.Ints(group)
		for i := 0; i < len(group); i++ {
			for j := i + 1; j < len(group); j++ {
				a, b := group[i], group[j]
				if infos[a].ref.Video == infos[b].ref.Video {
					continue // joint compression crosses logical videos
				}
				ka, kb := keypointsOf(a), keypointsOf(b)
				matches := vision.MatchKeypoints(ka, kb, vision.DefaultLoweRatio)
				if len(matches) < candidateMinMatches {
					continue
				}
				// Geometric verification: the correspondences must be
				// consistent with a single homography, not merely similar
				// in appearance (periodic textures match across unrelated
				// scenes).
				res, ok := vision.RANSACHomography(ka, kb, matches, 200, 3, candidateMinMatches, rng)
				if !ok {
					continue
				}
				all = append(all, scored{a, b, len(res.Inliers)})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].inliers > all[j].inliers })
	var pairs []PairCandidate
	paired := make(map[int]bool)
	for _, sc := range all {
		if paired[sc.a] || paired[sc.b] {
			continue
		}
		pairs = append(pairs, PairCandidate{A: infos[sc.a].ref, B: infos[sc.b].ref, Matches: sc.inliers})
		paired[sc.a], paired[sc.b] = true, true
	}
	return pairs, len(infos), nil
}

// FeatureMatchCheck runs the per-pair feature test in isolation: whether
// two GOPs share enough unambiguous correspondences to be a joint
// compression candidate. It is the unit of work the paper's Figure 11
// charges to the random-sampling strategy. Safe for concurrent use.
func (s *Store) FeatureMatchCheck(a, b GOPRef) (bool, error) {
	var fa, fb *frame.Frame
	err := s.withVideos([]string{a.Video, b.Video}, func(held map[string]*videoState) error {
		vsa, pa, ga, err := resolveRefIn(held, a)
		if err != nil {
			return err
		}
		vsb, pb, gb, err := resolveRefIn(held, b)
		if err != nil {
			return err
		}
		if fa, err = s.firstFrameIn(held, vsa, pa, ga); err != nil {
			return err
		}
		fb, err = s.firstFrameIn(held, vsb, pb, gb)
		return err
	})
	if err != nil {
		return false, err
	}
	matches := vision.MatchKeypoints(vision.DetectKeypoints(fa, 300), vision.DetectKeypoints(fb, 300), vision.DefaultLoweRatio)
	return len(matches) >= candidateMinMatches, nil
}

// firstFrameIn is firstFrameHeld generalized to a held lock set, so it can
// chase duplicate/joint references (expanding the set via withVideos).
func (s *Store) firstFrameIn(held map[string]*videoState, vs *videoState, p *PhysMeta, g *GOPMeta) (*frame.Frame, error) {
	snap, err := s.loadGOPLocked(context.Background(), held, vs, p, g)
	if err != nil {
		return nil, err
	}
	frames, _, _, err := decodeSnap(snap, 0, 1)
	if err != nil {
		return nil, err
	}
	if len(frames) == 0 {
		return nil, fmt.Errorf("core: empty GOP %s/%d/%d", vs.meta.Name, p.ID, g.Seq)
	}
	return toRGB(frames[0]), nil
}

// JointCompressAll runs the full pipeline — discovery then compression —
// over the whole store, returning sweep statistics (the workflow of
// Figure 9). Safe for concurrent use: discovery holds one video lock at a
// time and each pair compression locks exactly its two videos, so
// foreground reads of other videos proceed throughout the sweep. Pairs
// whose GOPs were evicted or deleted between discovery and compression
// are counted as aborted.
func (s *Store) JointCompressAll(merge MergeMode) (JointStats, error) {
	var st JointStats
	pairs, scanned, err := s.FindJointCandidates()
	if err != nil {
		return st, err
	}
	st.Scanned = scanned
	st.Pairs = len(pairs)
	for _, pc := range pairs {
		res, err := s.JointCompressPair(pc.A, pc.B, merge)
		if err != nil {
			if errors.Is(err, ErrNotFound) || errors.Is(err, errDanglingRef) {
				st.Aborted++ // video, view, or GOP vanished mid-sweep
				continue
			}
			return st, err
		}
		st.BytesBefore += res.BytesBefore
		st.BytesAfter += res.BytesAfter
		switch {
		case res.Duplicate:
			st.Duplicates++
			st.Compressed++
		case res.Compressed:
			st.Compressed++
		default:
			st.Aborted++
		}
	}
	return st, nil
}
