package codec

import (
	"fmt"
	"testing"

	"repro/internal/frame"
	"repro/internal/visualroad"
)

// benchGOP is the benchmark harness's working point: one second of the
// visualroad traffic scene, 8 fps, as captured RGB.
func benchGOP(w, h int) []*frame.Frame {
	world := visualroad.NewWorld(visualroad.Config{Width: w, Height: h, FPS: 8, Seed: 1})
	frames := make([]*frame.Frame, 8)
	for t := range frames {
		frames[t] = world.LeftFrame(t)
	}
	return frames
}

const benchQuality = 85

// benchCases are the profiles and sizes the codec benchmarks run: both
// profiles at the harness's 480x272, and hevc at 240x136, the hevc view
// read_spill asks for most.
var benchCases = []struct {
	id   ID
	w, h int
}{{H264, 480, 272}, {HEVC, 480, 272}, {HEVC, 240, 136}}

// benchName keeps the 480x272 cases under their profile's bare name.
func benchName(id ID, w, h int) string {
	if w == 480 && h == 272 {
		return string(id)
	}
	return fmt.Sprintf("%s-%dx%d", id, w, h)
}

// rawGOPBytes is the decoded (YUV420) size of a benchGOP, the MB/s
// numerator on both sides so encode and decode rates compare directly.
func rawGOPBytes(frames []*frame.Frame) int64 {
	return int64(len(frames) * frame.YUV420.Size(frames[0].Width, frames[0].Height))
}

var benchSink int

// Every encode and decode case reports bytes/frame beside its speed: the
// two trade against each other, and a speed-up bought with ratio shows.
func BenchmarkEncodeGOP(b *testing.B) {
	for _, c := range benchCases {
		frames := benchGOP(c.w, c.h)
		b.Run(benchName(c.id, c.w, c.h), func(b *testing.B) {
			enc := NewEncoder()
			b.ReportAllocs()
			b.SetBytes(rawGOPBytes(frames))
			size := 0
			for b.Loop() {
				data, _, err := enc.EncodeGOP(frames, c.id, benchQuality)
				if err != nil {
					b.Fatal(err)
				}
				size = len(data)
			}
			benchSink += size
			b.ReportMetric(float64(size)/float64(len(frames)), "bytes/frame")
		})
	}
}

func BenchmarkDecodeGOP(b *testing.B) {
	for _, c := range benchCases {
		frames := benchGOP(c.w, c.h)
		data, _, err := EncodeGOP(frames, c.id, benchQuality)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(benchName(c.id, c.w, c.h), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(rawGOPBytes(frames))
			for b.Loop() {
				dec, _, err := DecodeGOP(data)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += len(dec)
			}
			b.ReportMetric(float64(len(data))/float64(len(frames)), "bytes/frame")
		})
	}
}

// BenchmarkDecodeRangeTail decodes only the last frame of the GOP: seven
// frames of look-back are reconstructed and discarded, one is delivered. It
// prices the paper's c_l — what a read pays for dependencies it does not
// return.
func BenchmarkDecodeRangeTail(b *testing.B) {
	frames := benchGOP(480, 272)
	data, _, err := EncodeGOP(frames, H264, benchQuality)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(rawGOPBytes(frames))
	for b.Loop() {
		dec, _, err := DecodeRange(data, len(frames)-1, len(frames))
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(dec)
	}
}
