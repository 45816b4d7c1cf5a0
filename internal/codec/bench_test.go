package codec

import (
	"testing"

	"repro/internal/frame"
	"repro/internal/visualroad"
)

// benchGOP is the benchmark harness's working point: one second of the
// visualroad traffic scene at 480x272, 8 fps, as captured RGB.
func benchGOP() []*frame.Frame {
	world := visualroad.NewWorld(visualroad.Config{Width: 480, Height: 272, FPS: 8, Seed: 1})
	frames := make([]*frame.Frame, 8)
	for t := range frames {
		frames[t] = world.LeftFrame(t)
	}
	return frames
}

const benchQuality = 85

// rawGOPBytes is the decoded (YUV420) size of benchGOP, the MB/s numerator
// on both sides so encode and decode rates compare directly.
const rawGOPBytes = 8 * 480 * 272 * 3 / 2

var benchSink int

func BenchmarkEncodeGOP(b *testing.B) {
	frames := benchGOP()
	for _, id := range []ID{H264, HEVC} {
		b.Run(string(id), func(b *testing.B) {
			enc := NewEncoder()
			b.ReportAllocs()
			b.SetBytes(rawGOPBytes)
			for b.Loop() {
				data, _, err := enc.EncodeGOP(frames, id, benchQuality)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += len(data)
			}
		})
	}
}

func BenchmarkDecodeGOP(b *testing.B) {
	frames := benchGOP()
	for _, id := range []ID{H264, HEVC} {
		data, _, err := EncodeGOP(frames, id, benchQuality)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(string(id), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(rawGOPBytes)
			for b.Loop() {
				dec, _, err := DecodeGOP(data)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += len(dec)
			}
		})
	}
}

// BenchmarkDecodeRangeTail decodes only the last frame of the GOP: seven
// frames of look-back are reconstructed and discarded, one is delivered. It
// prices the paper's c_l — what a read pays for dependencies it does not
// return.
func BenchmarkDecodeRangeTail(b *testing.B) {
	frames := benchGOP()
	data, _, err := EncodeGOP(frames, H264, benchQuality)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(rawGOPBytes)
	for b.Loop() {
		dec, _, err := DecodeRange(data, len(frames)-1, len(frames))
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(dec)
	}
}
