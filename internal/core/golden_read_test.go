package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"testing"

	"repro/internal/codec"
	"repro/internal/frame"
)

// goldenReads is the frozen observable output of the read paths over one
// fixed sequence of reads (see TestReadGolden): per step, the first 16
// hex digits of a SHA-256 over the output, the output size, and the
// step's ReadStats or QueryStats. A change to any read executor must
// leave every line unchanged; a mismatch prints the line the code now
// produces.
var goldenReads = []struct{ name, want string }{
	{"read/hevc", "6e4a885c021562af n=2 decoded=3 bytes=15222 admitted=true"},
	{"stream/mixed-hevc", "56c5599215caacbe n=6 decoded=4 bytes=34757 admitted=true"},
	{"read/raw-rgb", "5a0c4aa60c5a7c3a n=24 decoded=3 bytes=15222 admitted=true"},
	{"stream/raw-yuv420", "e6e29043f9633bf5 n=40 decoded=5 bytes=231650 admitted=false"},
	{"read/raw-yuv420", "e6e29043f9633bf5 n=40 decoded=5 bytes=231650 admitted=true"},
	{"read/h264-passthrough", "310f19b6fd5b285a n=5 decoded=0 bytes=25508 admitted=false"},
	{"stream/roi-resize-hevc", "1f4c0673e5cfa708 n=5 decoded=5 bytes=295212 admitted=true"},
	{"read/roi-resize-hevc", "1f4c0673e5cfa708 n=5 decoded=0 bytes=12922 admitted=false"},
	{"read/fps-h264", "d1a4d7c5248f936c n=3 decoded=5 bytes=25508 admitted=true"},
	{"stream/fps-raw", "ec6709f1ede84efb n=20 decoded=5 bytes=295212 admitted=false"},
	{"read/h264-small", "b1263af33e2d8462 n=2 decoded=2 bytes=147576 admitted=true"},
	{"read/mixed-h264-small", "bab02e8e0a9ff920 n=5 decoded=3 bytes=152040 admitted=true"},
	{"where/count", "4616d3a0478f0e17 n=18 considered=6 skipped=3 decoded=3 nosummary=0 scanned=24 matched=18 bytes=7461"},
	{"where/motion-window", "8655aa038cf97471 n=35 considered=6 skipped=0 decoded=6 nosummary=0 scanned=40 matched=35 bytes=14082"},
	{"streamwhere/no-vehicles", "8426beb8e89b72b7 n=14 considered=4 skipped=2 decoded=2 nosummary=0 scanned=16 matched=14 bytes=4502"},
	{"estimator", "len=11"},
}

// goldenHash digests read output in a layout-independent way: every
// frame contributes its format and geometry before its pixels.
type goldenHash struct{ h hash.Hash }

func newGoldenHash() *goldenHash { return &goldenHash{sha256.New()} }

func (g *goldenHash) ints(vs ...int) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		g.h.Write(b[:])
	}
}

func (g *goldenHash) frame(f *frame.Frame) {
	g.ints(int(f.Format), f.Width, f.Height, len(f.Data))
	g.h.Write(f.Data)
}

func (g *goldenHash) gop(data []byte) {
	g.ints(len(data))
	g.h.Write(data)
}

func (g *goldenHash) sum() string { return fmt.Sprintf("%x", g.h.Sum(nil)[:8]) }

func readLine(g *goldenHash, n int, st ReadStats) string {
	return fmt.Sprintf("%s n=%d decoded=%d bytes=%d admitted=%v", g.sum(), n, st.GOPsDecoded, st.BytesRead, st.Admitted)
}

func queryLine(g *goldenHash, n int, st QueryStats) string {
	return fmt.Sprintf("%s n=%d considered=%d skipped=%d decoded=%d nosummary=%d scanned=%d matched=%d bytes=%d",
		g.sum(), n, st.GOPsConsidered, st.GOPsSkipped, st.GOPsDecoded, st.NoSummary,
		st.FramesScanned, st.FramesMatched, st.BytesRead)
}

// TestReadGolden pins the bytes and statistics of Read, ReadStream,
// ReadWhere and ReadStreamWhere over a fixed sequence of reads on seeded
// scenes: raw RGB and YUV420 output, h264 passthrough and hevc transcode,
// ROI crop plus resize, a frame-rate change, and mixed plans (reads issued
// after a transcoded view was admitted, so passthrough GOPs of the view
// interleave with transcoded edges). Cache admission runs, so each step's
// plan depends on the ones before it; PSNR sampling runs on every
// admitted compressed GOP, so the estimator's final size pins which reads
// sample. The budget is unlimited, so the freeze covers the read paths
// alone (TestLRUOrderReplays covers eviction and deferred compression).
// Each predicate read runs a second time on the same store, served from
// the analysis memo, and must reproduce its line.
func TestReadGolden(t *testing.T) {
	s := newStore(t, Options{GOPFrames: 8, Workers: 2, BudgetMultiple: -1})
	s.qualitySampleEvery = 1
	writeVideo(t, s, "v", scene(40, 64, 48, 31), 8, codec.H264)
	writeVideo(t, s, "q", burstScene(48, 64, 48, [][2]int{{8, 16}, {30, 40}}), 8, codec.H264)

	var got []string
	read := func(spec ReadSpec) string {
		res, err := s.Read("v", spec)
		if err != nil {
			t.Fatalf("read %+v: %v", spec, err)
		}
		g := newGoldenHash()
		g.ints(res.Width, res.Height, res.FPS)
		for _, f := range res.Frames {
			g.frame(f)
		}
		for _, d := range res.GOPs {
			g.gop(d)
		}
		return readLine(g, len(res.Frames)+len(res.GOPs), res.Stats)
	}
	stream := func(spec ReadSpec) string {
		st, err := s.ReadStream(context.Background(), "v", spec)
		if err != nil {
			t.Fatalf("stream %+v: %v", spec, err)
		}
		defer st.Close()
		g := newGoldenHash()
		g.ints(st.Width, st.Height, st.FPS)
		n := 0
		for _, b := range collect(t, st) {
			for _, f := range b.Frames {
				g.frame(f)
			}
			if b.GOP != nil {
				g.gop(b.GOP)
			}
			n += len(b.Frames)
			if b.GOP != nil {
				n++
			}
		}
		return readLine(g, n, st.Stats())
	}
	hashMatches := func(g *goldenHash, ms []Match) {
		for _, m := range ms {
			g.ints(m.Index, m.Info.Count())
			g.h.Write([]byte(fmt.Sprintf("%.9g", m.Info.Motion)))
			g.frame(m.Frame)
		}
	}
	// Every predicate case runs twice: the second read finds each decoded
	// GOP's analysis in the memo and must produce the same line.
	twice := func(name string, run func() (string, QueryStats)) string {
		line, _ := run()
		again, st := run()
		if again != line {
			t.Errorf("%s: memo-served read differs:\n first  %q\n second %q", name, line, again)
		}
		if st.AnalysisReused != st.GOPsDecoded {
			t.Errorf("%s: second read reused %d of %d decoded GOPs' analyses", name, st.AnalysisReused, st.GOPsDecoded)
		}
		return line
	}
	where := func(predStr string, t0, t1 float64) string {
		pred, err := ParsePredicate(predStr)
		if err != nil {
			t.Fatal(err)
		}
		return twice(predStr, func() (string, QueryStats) {
			res, err := s.ReadWhere("q", pred, t0, t1)
			if err != nil {
				t.Fatalf("ReadWhere %q: %v", predStr, err)
			}
			g := newGoldenHash()
			g.ints(res.Width, res.Height, res.FPS)
			hashMatches(g, res.Matches)
			return queryLine(g, len(res.Matches), res.Stats), res.Stats
		})
	}
	streamWhere := func(predStr string, t0, t1 float64) string {
		pred, err := ParsePredicate(predStr)
		if err != nil {
			t.Fatal(err)
		}
		return twice(predStr, func() (string, QueryStats) {
			st, err := s.ReadStreamWhere(context.Background(), "q", pred, t0, t1)
			if err != nil {
				t.Fatalf("ReadStreamWhere %q: %v", predStr, err)
			}
			defer st.Close()
			g := newGoldenHash()
			g.ints(st.Width, st.Height, st.FPS)
			n := 0
			for {
				b, err := st.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("ReadStreamWhere %q: %v", predStr, err)
				}
				hashMatches(g, b.Matches)
				n += len(b.Matches)
			}
			return queryLine(g, n, st.Stats()), st.Stats()
		})
	}

	hevc := Physical{Codec: codec.HEVC}
	small := Spatial{Width: 32, Height: 24}
	roi := Spatial{Width: 48, Height: 36, ROI: &frame.Rect{X0: 8, Y0: 6, X1: 40, Y1: 30}}
	got = append(got,
		// A mixed plan first: the hevc view admitted over [1.5, 3.5)
		// serves its aligned GOPs as passthrough between transcoded edges.
		read(ReadSpec{T: Temporal{Start: 1.5, End: 3.5}, P: hevc}),
		stream(ReadSpec{P: hevc}),
		read(ReadSpec{T: Temporal{Start: 1, End: 4}, P: Physical{Format: frame.RGB}}),
		stream(ReadSpec{P: Physical{Format: frame.YUV420}}),
		read(ReadSpec{P: Physical{Format: frame.YUV420}}),
		read(ReadSpec{P: Physical{Codec: codec.H264}}),
		stream(ReadSpec{S: roi, P: hevc}),
		read(ReadSpec{S: roi, P: hevc}),
		read(ReadSpec{T: Temporal{FPS: 4}, P: Physical{Codec: codec.H264}}),
		stream(ReadSpec{T: Temporal{FPS: 4}}),
		// The same for a batch read: the small h264 view admitted over
		// [2, 4) sits between transcoded edges of the whole-video read.
		read(ReadSpec{S: small, T: Temporal{Start: 2, End: 4}, P: Physical{Codec: codec.H264}}),
		read(ReadSpec{S: small, P: Physical{Codec: codec.H264}}),
		where("count >= 1", 0, 0),
		where("motion > 0.5 or count >= 2", 0.5, 5.5),
		streamWhere("count == 0", 1, 4.5),
		fmt.Sprintf("len=%d", s.Estimator().Len()),
	)

	if len(got) != len(goldenReads) {
		t.Fatalf("%d steps, %d golden lines", len(got), len(goldenReads))
	}
	for i, g := range goldenReads {
		if got[i] != g.want {
			t.Errorf("%s:\n got  %q\n want %q", g.name, got[i], g.want)
		}
	}
}
