package codec

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/frame"
)

// yuvScene converts the standard test scene to YUV420, the format every
// registered codec accepts.
func yuvScene(n, w, h int, seed int64) []*frame.Frame {
	rgb := testScene(n, w, h, seed)
	out := make([]*frame.Frame, n)
	for i, f := range rgb {
		out[i] = f.Convert(frame.YUV420)
	}
	return out
}

// TestRegistryConformance runs every registered codec through the
// contract the registry promises: encode/decode roundtrip at full and
// reduced quality, subrange decode consistency with full decode, and
// byte-identity whenever the codec declares Lossless for the quality.
func TestRegistryConformance(t *testing.T) {
	frames := yuvScene(8, 64, 48, 11)
	for _, id := range Registered() {
		if !id.Valid() {
			t.Errorf("%s: registered codec fails Valid()", id)
		}
		c, ok := Lookup(id)
		if !ok {
			t.Fatalf("%s: Lookup misses a registered codec", id)
		}
		for _, q := range []int{100, 60} {
			data, st, err := EncodeGOP(frames, id, q)
			if err != nil {
				t.Fatalf("%s q%d: encode: %v", id, q, err)
			}
			if st.Bytes != len(data) {
				t.Errorf("%s q%d: Stats.Bytes = %d, want %d", id, q, st.Bytes, len(data))
			}
			hd, err := DecodeHeader(data)
			if err != nil {
				t.Fatalf("%s q%d: header: %v", id, q, err)
			}
			if hd.Codec != id {
				t.Errorf("%s q%d: header tags %q", id, q, hd.Codec)
			}
			dec, _, err := DecodeGOP(data)
			if err != nil {
				t.Fatalf("%s q%d: decode: %v", id, q, err)
			}
			if len(dec) != len(frames) {
				t.Fatalf("%s q%d: decoded %d frames, want %d", id, q, len(dec), len(frames))
			}
			if c.Lossless(q) {
				for i := range frames {
					if !bytes.Equal(frames[i].Data, dec[i].Data) {
						t.Fatalf("%s q%d: Lossless codec not byte-identical at frame %d", id, q, i)
					}
				}
			}
			// Subrange decode must agree with the same frames of a full
			// decode (the registry's DecodeRange contract).
			sub, _, err := DecodeRange(data, 2, 5)
			if err != nil {
				t.Fatalf("%s q%d: subrange: %v", id, q, err)
			}
			for i, f := range sub {
				if !bytes.Equal(f.Data, dec[2+i].Data) {
					t.Fatalf("%s q%d: subrange frame %d differs from full decode", id, q, i)
				}
			}
		}
	}
}

// TestUnknownCodecTag covers both container generations: a v1 byte
// outside the legacy table and a v2 name with no registered codec must
// both fail with ErrUnknownCodec, as must encoding through an
// unregistered ID.
func TestUnknownCodecTag(t *testing.T) {
	frames := yuvScene(2, 16, 16, 3)
	if _, _, err := EncodeGOP(frames, ID("nope"), 80); !errors.Is(err, ErrUnknownCodec) {
		t.Errorf("encode unknown codec: err = %v, want ErrUnknownCodec", err)
	}

	// v1 container with an out-of-table codec byte.
	raw, _, err := EncodeGOP(frames, Raw, 100)
	if err != nil {
		t.Fatal(err)
	}
	if raw[4] != containerV1 {
		t.Fatalf("raw container version = %d, want v1", raw[4])
	}
	bad := append([]byte(nil), raw...)
	bad[5] = 9
	if _, err := DecodeHeader(bad); !errors.Is(err, ErrUnknownCodec) {
		t.Errorf("v1 unknown byte: err = %v, want ErrUnknownCodec", err)
	}

	// v2 container naming a codec nobody registered.
	ls, _, err := EncodeGOP(frames, LS, 100)
	if err != nil {
		t.Fatal(err)
	}
	if ls[4] != containerV2 {
		t.Fatalf("ls container version = %d, want v2", ls[4])
	}
	bad = append([]byte(nil), ls...)
	if bad[5] != byte(len(LS)) || string(bad[6:6+len(LS)]) != string(LS) {
		t.Fatalf("unexpected v2 name layout")
	}
	bad[6], bad[7] = 'z', 'z'
	if _, err := DecodeHeader(bad); !errors.Is(err, ErrUnknownCodec) {
		t.Errorf("v2 unknown name header: err = %v, want ErrUnknownCodec", err)
	}
	if _, _, err := DecodeGOP(bad); !errors.Is(err, ErrUnknownCodec) {
		t.Errorf("v2 unknown name decode: err = %v, want ErrUnknownCodec", err)
	}
}

// TestV1ContainerBackwardCompat pins the container versions this build
// writes: raw keeps the v1 single-byte tag layout of pre-registry stores,
// h264 and hevc write v3 — the v1 layout under its own version byte, since
// their streams are run-coded — and a hand-assembled v1 container decodes.
// (testdata/v1 holds h264/hevc GOPs in v1; TestV1FixturesDecode reads them.)
func TestV1ContainerBackwardCompat(t *testing.T) {
	frames := yuvScene(3, 32, 16, 5)
	for id, version := range map[ID]byte{Raw: containerV1, H264: containerV3, HEVC: containerV3} {
		data, _, err := EncodeGOP(frames, id, 90)
		if err != nil {
			t.Fatal(err)
		}
		if data[4] != version {
			t.Errorf("%s: container version = %d, want %d", id, data[4], version)
		}
		if data[5] != legacyCodecByte[id] {
			t.Errorf("%s: legacy byte = %d, want %d", id, data[5], legacyCodecByte[id])
		}
	}
	// No build writes a raw GOP run-coded, so a v3 raw tag is corrupt.
	raw, _, err := EncodeGOP(frames, Raw, 100)
	if err != nil {
		t.Fatal(err)
	}
	raw[4] = containerV3
	if _, err := DecodeHeader(raw); err == nil {
		t.Error("raw GOP under a v3 header accepted")
	}

	// A v1 raw container assembled by hand (the untagged on-disk format
	// every pre-registry GOP has) must decode byte-identically.
	payloads := make([][]byte, len(frames))
	types := make([]FrameType, len(frames))
	for i, f := range frames {
		payloads[i] = f.Data
		types[i] = IFrame
	}
	data := writeContainer(Raw, false, frames[0].Format, 100, frames[0].Width, frames[0].Height, types, payloads)
	dec, hd, err := DecodeGOP(data)
	if err != nil {
		t.Fatal(err)
	}
	if hd.Codec != Raw {
		t.Fatalf("decoded codec = %q, want raw", hd.Codec)
	}
	for i := range frames {
		if !bytes.Equal(frames[i].Data, dec[i].Data) {
			t.Fatalf("v1 container frame %d not byte-identical", i)
		}
	}
}

// TestConcurrentEncodersShareFrames encodes the same frame slice from
// many goroutines (each with its own Encoder, as the writer pool does)
// and checks every output is byte-identical. Run under -race this pins
// the no-input-mutation guarantee, including ls's NEAR=0 path and its
// internal per-frame fan-out.
func TestConcurrentEncodersShareFrames(t *testing.T) {
	prev := runtime.GOMAXPROCS(4) // exercise the parallel paths even on 1-core hosts
	defer runtime.GOMAXPROCS(prev)

	frames := yuvScene(8, 64, 48, 17)
	for _, id := range []ID{Raw, LS, H264} {
		const workers = 4
		outs := make([][]byte, workers)
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				enc := NewEncoder()
				for rep := 0; rep < 3; rep++ {
					data, _, err := enc.EncodeGOP(frames, id, 100)
					if err != nil {
						errs <- fmt.Errorf("%s worker %d: %w", id, w, err)
						return
					}
					outs[w] = data
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		for w := 1; w < workers; w++ {
			if !bytes.Equal(outs[0], outs[w]) {
				t.Fatalf("%s: concurrent encoders produced different bytes", id)
			}
		}
	}
}

// TestRegisteredOrderAndNames pins the registry listing helpers the CLI
// surfaces lean on.
func TestRegisteredOrderAndNames(t *testing.T) {
	ids := Registered()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("Registered() not sorted: %v", ids)
		}
	}
	names := Names()
	for _, id := range ids {
		if !containsName(names, string(id)) {
			t.Errorf("Names() = %q missing %q", names, id)
		}
	}
	if !LS.Compressed() || Raw.Compressed() {
		t.Errorf("Compressed: ls=%v raw=%v, want true/false", LS.Compressed(), Raw.Compressed())
	}
}

func containsName(pipeJoined, name string) bool {
	start := 0
	for i := 0; i <= len(pipeJoined); i++ {
		if i == len(pipeJoined) || pipeJoined[i] == '|' {
			if pipeJoined[start:i] == name {
				return true
			}
			start = i + 1
		}
	}
	return false
}
