package codec

import (
	"testing"

	"repro/internal/frame"
)

// FuzzDecodeGOP throws mutated containers at every registered decoder. The
// lossy decoders read their stream through row kernels that index ahead of
// the validated position (inside a padded buffer) and take motion vectors
// and dimensions from the input, so the property is memory safety and
// boundedness: any input returns an error or well-formed frames, never a
// panic, and never an allocation the input's own size does not justify.
func FuzzDecodeGOP(f *testing.F) {
	rgb := testScene(3, 24, 16, 61)
	yuv := make([]*frame.Frame, len(rgb))
	for i, fr := range rgb {
		yuv[i] = fr.Convert(frame.YUV420)
	}
	for _, seed := range []struct {
		id      ID
		quality int
		frames  []*frame.Frame
	}{
		{H264, 85, rgb}, {HEVC, 85, rgb}, {H264, 100, yuv}, {HEVC, 30, yuv},
		{Raw, 100, rgb}, {Raw, 100, yuv}, {LS, 100, yuv}, {LS, 60, rgb},
	} {
		data, _, err := EncodeGOP(seed.frames, seed.id, seed.quality)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, 0, -1)
		f.Add(data, 1, 2)
	}
	f.Fuzz(func(t *testing.T, data []byte, from, to int) {
		hd, err := DecodeHeader(data)
		if err != nil {
			return
		}
		// ls codes long runs in a few bits, so a small ls payload may
		// legitimately describe a large frame; keep the fuzzer's memory for
		// inputs that can find something.
		if hd.Codec == LS && hd.Width*hd.Height > 1<<16 {
			t.Skip("large ls frame")
		}
		frames, _, err := DecodeRange(data, from, to)
		if err != nil {
			return
		}
		for i, fr := range frames {
			if fr.Width != hd.Width || fr.Height != hd.Height || len(fr.Data) != fr.Format.Size(fr.Width, fr.Height) {
				t.Fatalf("frame %d: %dx%d %v with %d bytes under a %dx%d header",
					i, fr.Width, fr.Height, fr.Format, len(fr.Data), hd.Width, hd.Height)
			}
		}
	})
}
