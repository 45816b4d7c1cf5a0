package core

import (
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/codec"
	"repro/internal/frame"
	"repro/internal/visualroad"
)

// goldenAnalyses freezes the per-frame analysis (AnalyzeFrames) and the
// persisted summary (EncodeSummary of summarizeFrames) on fixed inputs:
// per case, the first 16 hex digits of a SHA-256 over every frame's
// motion bits, detection boxes and colour bits, the frame and detection
// counts, and the summary record in hex. A faster analysis kernel must
// leave every line unchanged; a mismatch prints the line the code now
// produces.
var goldenAnalyses = []struct{ name, want string }{
	{"recon/h264-q85-seed1", "7e65e147fd1f102b frames=8 dets=87 summary=46010000000000000000401b951065bb10660000000a0000000c9001000400200208d2b32638"},
	{"recon/h264-q85-seed7", "31b4a7a601b20612 frames=8 dets=87 summary=460100000000000000004013ec5b05b05b060000000a0000000bd001000400000008cb81ae88"},
	{"source/rgb-240x136-seed11", "9d49c96c6eee5b46 frames=8 dets=45 summary=460100000000000000004016bd3287dd32880000000500000006900100040000020829524725"},
}

// reconGOP is what ingest analyses for a compressed write: the h264
// encoder's q85 reconstruction (YUV420) of 8 frames of a seeded
// visualroad scene at 480x272, starting at frame t0.
func reconGOP(tb testing.TB, seed int64, t0 int) []*frame.Frame {
	tb.Helper()
	world := visualroad.NewWorld(visualroad.Config{Width: 480, Height: 272, FPS: 8, Seed: seed})
	src := make([]*frame.Frame, 8)
	for i := range src {
		src[i] = world.LeftFrame(t0 + i)
	}
	_, recon, _, err := codec.NewEncoder().EncodeGOPRecon(src, codec.H264, 85)
	if err != nil {
		tb.Fatal(err)
	}
	return recon
}

func analysisLine(frames []*frame.Frame) string {
	g := newGoldenHash()
	infos := AnalyzeFrames(frames)
	dets := 0
	for _, fi := range infos {
		g.ints(int(math.Float64bits(fi.Motion)), len(fi.Detections))
		for _, d := range fi.Detections {
			g.ints(d.Box.X0, d.Box.Y0, d.Box.X1, d.Box.Y1)
			for _, c := range d.Color {
				g.ints(int(math.Float64bits(c)))
			}
		}
		dets += len(fi.Detections)
	}
	return fmt.Sprintf("%s frames=%d dets=%d summary=%s", g.sum(), len(infos), dets, hex.EncodeToString(EncodeSummary(summarizeFrames(frames))))
}

// TestAnalysisGolden pins the analysis of two encoder reconstructions
// and of one RGB source clip, and checks that ingest's summarizeFrames
// folds to the same summary as Summarize over AnalyzeFrames.
func TestAnalysisGolden(t *testing.T) {
	cases := []struct {
		name   string
		frames []*frame.Frame
		format frame.PixelFormat
	}{
		{"recon/h264-q85-seed1", reconGOP(t, 1, 0), frame.YUV420},
		{"recon/h264-q85-seed7", reconGOP(t, 7, 40), frame.YUV420},
		{"source/rgb-240x136-seed11", visualroad.Generate(visualroad.Config{Width: 240, Height: 136, FPS: 8, Seed: 11, Vehicles: 6}, 8), frame.RGB},
	}
	if len(cases) != len(goldenAnalyses) {
		for _, c := range cases {
			t.Logf("{%q, %q},", c.name, analysisLine(c.frames))
		}
		t.Fatalf("%d cases, %d golden lines", len(cases), len(goldenAnalyses))
	}
	for i, c := range cases {
		if f := c.frames[0]; f.Format != c.format {
			t.Fatalf("%s: input format %v, want %v", c.name, f.Format, c.format)
		}
		if got, want := EncodeSummary(Summarize(AnalyzeFrames(c.frames))), EncodeSummary(summarizeFrames(c.frames)); string(got) != string(want) {
			t.Errorf("%s: summarizeFrames disagrees with Summarize(AnalyzeFrames)", c.name)
		}
		if g := goldenAnalyses[i]; g.name != c.name {
			t.Fatalf("case %d is %s, golden line is for %s", i, c.name, g.name)
		} else if got := analysisLine(c.frames); got != g.want {
			t.Errorf("%s:\n got  %q\n want %q", c.name, got, g.want)
		}
	}
}
