package core

import "testing"

// BenchmarkSummarizeGOP measures ingest-time summarization of one GOP:
// what every compressed write pays on top of encoding. Ingest analyses the
// encoder's reconstruction, so the input is the h264 q85 reconstruction
// of a busy visualroad scene at 480x272 (YUV420), and the conversion back
// to RGB is part of the measured cost.
func BenchmarkSummarizeGOP(b *testing.B) {
	frames := reconGOP(b, 1, 0)
	var bytes int64
	for _, f := range frames {
		bytes += int64(len(f.Data))
	}
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if summarizeFrames(frames) == nil {
			b.Fatal("nil summary")
		}
	}
}
