package lossless

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/codec"
	"repro/internal/frame"
)

// rawGOP builds a raw GOP container over noisy synthetic frames — the
// exact input shape the deferred tier hands to Recompress.
func rawGOP(t *testing.T, n, w, h int, seed int64) ([]byte, []*frame.Frame) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	frames := make([]*frame.Frame, n)
	for i := range frames {
		f := frame.New(w, h, frame.YUV420)
		for j := range f.Data {
			f.Data[j] = byte((j/5)%200) + byte(rng.Intn(8))
		}
		frames[i] = f
	}
	data, _, err := codec.EncodeGOP(frames, codec.Raw, 100)
	if err != nil {
		t.Fatal(err)
	}
	return data, frames
}

// TestRecompressRoutesRawGOPThroughLS pins the deferred tier's new path:
// a raw GOP container comes back as a directly-decodable ls container —
// no VSL1 framing — that is smaller than raw and byte-identical on
// decode.
func TestRecompressRoutesRawGOPThroughLS(t *testing.T) {
	raw, frames := rawGOP(t, 6, 64, 48, 41)
	out, err := Recompress(raw)
	if err != nil {
		t.Fatal(err)
	}
	if IsCompressed(out) {
		t.Fatal("raw GOP recompressed into a flate block, want an ls container")
	}
	hd, err := codec.DecodeHeader(out)
	if err != nil {
		t.Fatalf("output is not a GOP container: %v", err)
	}
	if hd.Codec != codec.LS {
		t.Fatalf("output codec = %q, want ls", hd.Codec)
	}
	if len(out) >= len(raw) {
		t.Fatalf("recompressed %d bytes >= raw %d bytes", len(out), len(raw))
	}
	dec, _, err := codec.DecodeGOP(out)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frames {
		if !bytes.Equal(frames[i].Data, dec[i].Data) {
			t.Fatalf("frame %d not byte-identical through Recompress", i)
		}
	}
}

// TestRecompressRefusesNonRawInput pins that the deferred tier writes
// only ls containers: bytes that are not a raw GOP container (arbitrary
// data, and an already-compressed h264 container) are refused with an
// error, never wrapped in a VSL1 flate block.
func TestRecompressRefusesNonRawInput(t *testing.T) {
	blob := bytes.Repeat([]byte("not a gop container "), 64)
	_, frames := rawGOP(t, 4, 32, 24, 43)
	h264, _, err := codec.EncodeGOP(frames, codec.H264, 85)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"blob": blob, "h264": h264} {
		if out, err := Recompress(data); err == nil {
			t.Errorf("%s: Recompress returned %d bytes, want a refusal", name, len(out))
		}
	}
}
