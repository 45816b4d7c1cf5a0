package frame_test

import (
	"fmt"
	"testing"

	"repro/internal/frame"
	"repro/internal/visualroad"
)

// BenchmarkConvert times the two conversions on the hot paths at the
// benchmark harness's frame size: RGB to YUV420 is paid per ingested frame,
// YUV420 to RGB per frame by ingest summarisation and predicate queries.
func BenchmarkConvert(b *testing.B) {
	world := visualroad.NewWorld(visualroad.Config{Width: 480, Height: 272, FPS: 8, Seed: 1})
	rgb := world.LeftFrame(0)
	yuv := rgb.Convert(frame.YUV420)
	for _, c := range []struct {
		name string
		src  *frame.Frame
		to   frame.PixelFormat
	}{
		{"rgb-yuv420", rgb, frame.YUV420},
		{"yuv420-rgb", yuv, frame.RGB},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(c.src.Data)))
			var dst *frame.Frame
			for b.Loop() {
				dst = c.src.ConvertInto(dst, c.to)
			}
		})
	}
}

// BenchmarkResize times the read path's downscales at the benchmark
// harness's frame size: RGB for frames a raw RGB view holds, YUV420 for
// decoded h264/hevc frames, which resample plane by plane.
func BenchmarkResize(b *testing.B) {
	world := visualroad.NewWorld(visualroad.Config{Width: 480, Height: 272, FPS: 8, Seed: 1})
	rgb := world.LeftFrame(0)
	for _, src := range []*frame.Frame{rgb, rgb.Convert(frame.YUV420)} {
		for _, to := range [][2]int{{240, 136}, {120, 68}} {
			b.Run(fmt.Sprintf("%v/%dx%d", src.Format, to[0], to[1]), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(src.Data)))
				for b.Loop() {
					src.Resize(to[0], to[1])
				}
			})
		}
	}
}
