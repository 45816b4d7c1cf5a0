package codec

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/frame"
	"repro/internal/visualroad"
)

// The bitstream freeze. testdata/golden.txt holds, for every case below, the
// SHA-256 of the encoded GOP and of the decoded frames, captured at the
// commit before the span kernels replaced the per-sample loops. Any kernel
// change that moves one encoded byte or one decoded pixel fails here; stores
// written by older builds stay readable byte-for-byte and vice versa.
//
// -update-golden rewrites the file from the current build. That is only
// legitimate for adding cases: run it at a commit whose output is known
// good and check that no existing line changes.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.txt from the current build")

const goldenFile = "testdata/golden.txt"

// goldenGOPFrames is short enough to keep the 36 cases quick and long enough
// that P-frames predict from a P-frame's reconstruction, not only the
// I-frame's.
const goldenGOPFrames = 4

type goldenCase struct {
	id      ID
	quality int
	w, h    int
	format  frame.PixelFormat
}

func (c goldenCase) name() string {
	return fmt.Sprintf("%s/q%d/%dx%d/%s", c.id, c.quality, c.w, c.h, c.format)
}

func goldenCases() []goldenCase {
	var out []goldenCase
	for _, id := range []ID{H264, HEVC} {
		// Quality 100 is step 1: residuals are exact, so hard edges exceed
		// the one-byte zigzag range and exercise the 3-byte escape.
		for _, q := range []int{40, 85, 100} {
			// 50x38 leaves partial blocks on both edges (luma 8/16, chroma
			// 4/8); 2x2 is a single chroma sample per plane.
			for _, dim := range [][2]int{{480, 272}, {50, 38}, {2, 2}} {
				for _, pf := range []frame.PixelFormat{frame.RGB, frame.YUV420} {
					out = append(out, goldenCase{id, q, dim[0], dim[1], pf})
				}
			}
		}
	}
	return out
}

// goldenFrames builds a case's input. Full-size RGB cases use the
// benchmark's own traffic scene; everything else is a byte pattern written
// straight into Data (for YUV420, straight into the planes, so the case does
// not depend on the colour conversion): a gradient, a hard-edged block
// moving 3 samples a frame, and sparse salt noise.
func goldenFrames(c goldenCase) []*frame.Frame {
	out := make([]*frame.Frame, goldenGOPFrames)
	if c.format == frame.RGB && c.w >= 64 {
		world := visualroad.NewWorld(visualroad.Config{Width: c.w, Height: c.h, FPS: 8, Seed: 7})
		for t := range out {
			out[t] = world.LeftFrame(40 + t)
		}
		return out
	}
	for t := range out {
		f := frame.New(c.w, c.h, c.format)
		switch c.format {
		case frame.RGB:
			goldenFill(f.Data, c.w, c.h, 3, t)
		default:
			ys, cs := c.w*c.h, (c.w/2)*(c.h/2)
			goldenFill(f.Data[:ys], c.w, c.h, 1, t)
			goldenFill(f.Data[ys:ys+cs], c.w/2, c.h/2, 1, t+1)
			goldenFill(f.Data[ys+cs:], c.w/2, c.h/2, 1, t+2)
		}
		out[t] = f
	}
	return out
}

// goldenFill writes one w x h plane of ch interleaved channels.
func goldenFill(pix []byte, w, h, ch, t int) {
	bx, by := (3*t+w/5)%max(w-w/4, 1), h/3
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			for k := 0; k < ch; k++ {
				v := 40 + (x*150)/w + (y*50)/h + 20*k
				if x >= bx && x < bx+max(w/4, 1) && y >= by && y < by+max(h/4, 1) {
					v = 250 - 240*(k&1) // hard edge against the gradient
				}
				hash := uint32(x*7349+y*9151+k*31+t*101) * 2654435761
				if hash>>24 < 6 {
					v = int(hash >> 8 & 255)
				}
				pix[(y*w+x)*ch+k] = byte(v)
			}
		}
	}
}

func digestFrames(frames []*frame.Frame) string {
	h := sha256.New()
	for _, f := range frames {
		fmt.Fprintf(h, "%d %d %d\n", f.Width, f.Height, f.Format)
		h.Write(f.Data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func readGolden(t *testing.T) map[string][2]string {
	t.Helper()
	fh, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("golden digests missing (generate with -update-golden at a known-good commit): %v", err)
	}
	defer fh.Close()
	out := make(map[string][2]string)
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 3 {
			t.Fatalf("%s: malformed line %q", goldenFile, sc.Text())
		}
		out[fields[0]] = [2]string{fields[1], fields[2]}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestGoldenBitstream(t *testing.T) {
	got := make(map[string][2]string)
	for _, c := range goldenCases() {
		frames := goldenFrames(c)
		data, _, err := EncodeGOP(frames, c.id, c.quality)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.name(), err)
		}
		dec, _, err := DecodeGOP(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.name(), err)
		}
		enc := sha256.Sum256(data)
		got[c.name()] = [2]string{hex.EncodeToString(enc[:]), digestFrames(dec)}
	}
	if *updateGolden {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		var sb strings.Builder
		for _, name := range names {
			fmt.Fprintf(&sb, "%s %s %s\n", name, got[name][0], got[name][1])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	if len(want) != len(got) {
		t.Errorf("%s has %d cases, the test runs %d", goldenFile, len(want), len(got))
	}
	for name, g := range got {
		w, ok := want[name]
		switch {
		case !ok:
			t.Errorf("%s: no golden digest", name)
		case g[0] != w[0]:
			t.Errorf("%s: encoded bytes changed (sha256 %s, frozen %s)", name, g[0], w[0])
		case g[1] != w[1]:
			t.Errorf("%s: decoded frames changed (sha256 %s, frozen %s)", name, g[1], w[1])
		}
	}
}

// TestGoldenExercisesEscape keeps the q=1 cases honest: the freeze only
// covers the 3-byte escape path if their streams actually contain escapes.
func TestGoldenExercisesEscape(t *testing.T) {
	for _, c := range goldenCases() {
		if c.quality != 100 || c.w < 50 || c.format != frame.YUV420 {
			continue // the planar pattern cases are the ones built to saturate
		}
		src := goldenFrames(c)
		yuv := make([]*frame.Frame, len(src))
		for i, f := range src {
			yuv[i] = f.Convert(frame.YUV420)
		}
		big := 0
		for i := 1; i < len(yuv); i++ {
			for j := range yuv[i].Data {
				if d := int(yuv[i].Data[j]) - int(yuv[i-1].Data[j]); d >= 128 || d <= -128 {
					big++
				}
			}
		}
		if big == 0 {
			t.Errorf("%s: no zero-motion residual reaches the escape range", c.name())
		}
	}
}
