package codec

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/frame"
)

// randCodeStream returns a frame stream as the row kernels write it: head
// arbitrary MV-table bytes, then codes — zero runs of every length class
// (short ones stay literal, long ones need a multi-byte uvarint), one-byte
// codes including 254, and escapes whose value bytes may be 0, 254 or 255.
func randCodeStream(rng *rand.Rand, head int) []byte {
	s := make([]byte, head)
	rng.Read(s)
	for n := rng.Intn(400); n > 0; n-- {
		switch rng.Intn(6) {
		case 0, 1:
			run := 1 + rng.Intn(12)
			switch rng.Intn(8) {
			case 0:
				run = 100 + rng.Intn(60) // around the one-byte length limit
			case 1:
				run = 16000 + rng.Intn(2000) // a three-byte length
			}
			s = append(s, make([]byte, run)...)
		case 2:
			s = append(s, 254)
		case 3:
			s = append(s, 255, []byte{0, 254, 255, byte(rng.Intn(256))}[rng.Intn(4)], byte(rng.Intn(256)))
		default:
			s = append(s, byte(1+rng.Intn(253)))
		}
	}
	return s
}

// staleBuffer returns a buffer of random capacity full of non-zero bytes, so
// an expansion that relies on it being clear shows.
func staleBuffer(rng *rand.Rand) []byte {
	b := make([]byte, rng.Intn(1<<15))
	for i := range b {
		b[i] = 0xA5
	}
	return b[:rng.Intn(len(b)+1)]
}

// escaped254 returns stream with every one-byte code 254 in its 3-byte
// escape form: what expanding the stream's run coding gives back.
func escaped254(stream []byte, head int) []byte {
	out := append([]byte(nil), stream[:head]...)
	for i := head; i < len(stream); i++ {
		switch stream[i] {
		case runToken:
			out = append(out, escToken, runToken, 0)
		case escToken:
			out = append(out, stream[i:i+3]...)
			i += 2
		default:
			out = append(out, stream[i])
		}
	}
	return out
}

// TestRunCodingRoundTrip: the word-at-a-time fold equals the byte-at-a-time
// reference, and expanding either way restores the stream — each 254 code
// as its escape, the same residual to the kernels — into a reused buffer
// with slack to spare; one byte less of limit is refused.
func TestRunCodingRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 500; trial++ {
		head := []int{0, 0, 2, 24, 510}[rng.Intn(5)]
		stream := randCodeStream(rng, head)
		folded := foldRuns(staleBuffer(rng), stream, head)
		if want := refFoldRuns(stream, head); !bytes.Equal(folded, want) {
			t.Fatalf("trial %d: fold differs from the reference", trial)
		}
		want := escaped254(stream, head)
		const slack = 37
		got, err := expandRuns(staleBuffer(rng), folded, head, len(want), slack)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("trial %d: expand: err %v, restored %v", trial, err, bytes.Equal(got, want))
		}
		if cap(got) < len(got)+slack {
			t.Fatalf("trial %d: %d bytes of capacity past the stream, want %d", trial, cap(got)-len(got), slack)
		}
		if ref, err := refExpandRuns(folded, head); err != nil || !bytes.Equal(ref, want) {
			t.Fatalf("trial %d: reference expand: err %v", trial, err)
		}
		if len(want) > 0 {
			if _, err := expandRuns(nil, folded, head, len(want)-1, slack); !errors.Is(err, errOversized) {
				t.Fatalf("trial %d: limit one short: err = %v, want the oversized-stream error", trial, err)
			}
		}
	}
}

// TestExpandRunsOnArbitraryInput feeds the expansion bytes no encoder wrote
// — tokens anywhere, escapes and tokens cut off by the end, multi-byte
// lengths — under random limits. It must agree with the reference: the same
// stream when that fits the limit, the oversized error when it does not,
// and an error whenever the reference finds the input truncated.
func TestExpandRunsOnArbitraryInput(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 3000; trial++ {
		src := make([]byte, rng.Intn(64))
		for i := range src {
			switch rng.Intn(6) {
			case 0:
				src[i] = runToken
			case 1:
				src[i] = escToken
			case 2:
				src[i] = 0
			default:
				src[i] = byte(rng.Intn(256))
			}
			// Lengths of one byte mostly and never more than two, so what the
			// reference expands to stays small.
			if i > 0 && src[i-1] == runToken && rng.Intn(4) > 0 || i > 1 && src[i-2] == runToken && src[i-1] >= 0x80 {
				src[i] &= 0x7F
			}
		}
		head := rng.Intn(4)
		want, wantErr := refExpandRuns(src, head)
		limit := rng.Intn(len(want) + 8)
		got, err := expandRuns(staleBuffer(rng), src, head, limit, 8)
		name := fmt.Sprintf("trial %d (%x head %d limit %d)", trial, src, head, limit)
		switch {
		case wantErr != nil:
			if err == nil {
				t.Fatalf("%s: reference error %v, expansion none", name, wantErr)
			}
		case len(want) > limit:
			if !errors.Is(err, errOversized) {
				t.Fatalf("%s: %d bytes over a limit of %d: err = %v", name, len(want), limit, err)
			}
		case err != nil || !bytes.Equal(got, want):
			t.Fatalf("%s: err %v, got %x, want %x", name, err, got, want)
		}
	}
}

// TestHostileRunTokens: run tokens are what a ~1 KB client-supplied payload
// can claim gigabytes with. The expansion must refuse them against the
// limit the header allows before writing anything, on the I-frame and the
// P-frame path, and a token or escape cut short must fail as truncated.
func TestHostileRunTokens(t *testing.T) {
	claim := binary.AppendUvarint([]byte{runToken}, 1<<30)
	hostile := bytes.Repeat(claim, 1024/len(claim))
	for _, id := range []ID{H264, HEVC} {
		for _, types := range [][]FrameType{{IFrame}, {IFrame, PFrame}} {
			payloads := [][]byte{zeroIFrame16(t, true), deflateRepeat(t, hostile, 1)}
			if len(types) == 1 {
				payloads = payloads[1:]
			}
			gop := writeContainer(id, true, frame.YUV420, 85, 16, 16, types, payloads)
			var err error
			start := time.Now()
			allocated := allocatedBy(func() { _, _, err = DecodeGOP(gop) })
			if !errors.Is(err, errOversized) {
				t.Errorf("%s %v: err = %v, want the oversized-stream error", id, types, err)
			}
			if allocated > 1<<20 {
				t.Errorf("%s %v: rejecting %d bytes of tokens allocated %d bytes", id, types, len(hostile), allocated)
			}
			if d := time.Since(start); d > time.Second {
				t.Errorf("%s %v: rejecting the tokens took %v", id, types, d)
			}
		}
	}
	for _, stream := range [][]byte{{1, 2, runToken}, {runToken, 0x80}, {3, escToken, 7}, {escToken}} {
		gop := writeContainer(H264, true, frame.YUV420, 85, 16, 16, []FrameType{IFrame}, [][]byte{deflateRepeat(t, stream, 1)})
		if _, _, err := DecodeGOP(gop); !errors.Is(err, errTruncated) {
			t.Errorf("stream %x: err = %v, want the truncated-stream error", stream, err)
		}
	}
}

// v1Fixtures are h264/hevc GOPs written by the last build before run coding
// (container v1), with the SHA-256 of each file and of its decoded frames.
const v1FixtureDir = "testdata/v1"

type v1Fixture struct {
	file, gopSum, framesSum string
	data                    []byte
}

func readV1Fixtures(tb testing.TB) []v1Fixture {
	tb.Helper()
	fh, err := os.Open(filepath.Join(v1FixtureDir, "digests.txt"))
	if err != nil {
		tb.Fatal(err)
	}
	defer fh.Close()
	var out []v1Fixture
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 3 {
			tb.Fatalf("digests.txt: malformed line %q", sc.Text())
		}
		data, err := os.ReadFile(filepath.Join(v1FixtureDir, f[0]))
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, v1Fixture{f[0], f[1], f[2], data})
	}
	if err := sc.Err(); err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestV1FixturesDecode: stores hold v1 h264/hevc GOPs, and this build must
// read every one of them pixel-identically to the build that wrote them —
// the same frames the golden file freezes for the same input — through the
// same kernels, and agree with the reference decoder.
func TestV1FixturesDecode(t *testing.T) {
	golden := readGolden(t)
	fixtures := readV1Fixtures(t)
	if len(fixtures) < 4 {
		t.Fatalf("%d fixtures, want the four in %s", len(fixtures), v1FixtureDir)
	}
	for _, fx := range fixtures {
		if sum := sha256.Sum256(fx.data); hex.EncodeToString(sum[:]) != fx.gopSum {
			t.Fatalf("%s: file does not match its recorded digest", fx.file)
		}
		if fx.data[4] != containerV1 {
			t.Fatalf("%s: container version %d, want v1", fx.file, fx.data[4])
		}
		dec, _, err := DecodeGOP(fx.data)
		if err != nil {
			t.Fatalf("%s: %v", fx.file, err)
		}
		if got := digestFrames(dec); got != fx.framesSum {
			t.Errorf("%s: decoded frames changed (sha256 %s, written as %s)", fx.file, got, fx.framesSum)
		}
		ref, err := refDecodeGOP(fx.data)
		if err != nil || digestFrames(ref) != fx.framesSum {
			t.Errorf("%s: reference decoder disagrees (err %v)", fx.file, err)
		}
		name := strings.ReplaceAll(strings.TrimSuffix(fx.file, ".gop"), "_", "/")
		if g, ok := golden[name]; !ok || g[1] != fx.framesSum {
			t.Errorf("%s: golden decoded digest for %s is %q, fixture decodes to %s", fx.file, name, g[1], fx.framesSum)
		}
	}
}
