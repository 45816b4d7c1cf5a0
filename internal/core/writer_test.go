package core

import (
	"testing"

	"repro/internal/codec"
	"repro/internal/frame"
	"repro/internal/quality"
)

func TestOpenWriterValidation(t *testing.T) {
	s := newStore(t, Options{})
	if err := s.Create("v", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenWriter("v", WriteSpec{FPS: 0, Codec: codec.H264}); err == nil {
		t.Error("zero fps accepted")
	}
	if _, err := s.OpenWriter("v", WriteSpec{FPS: 8, Codec: "av1"}); err == nil {
		t.Error("unknown codec accepted")
	}
	if _, err := s.OpenWriter("missing", WriteSpec{FPS: 8, Codec: codec.H264}); err != ErrNotFound {
		t.Error("missing video accepted")
	}
	// Empty codec defaults to raw.
	w, err := s.OpenWriter("v", WriteSpec{FPS: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(frame.New(32, 24, frame.RGB)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, phys, _ := s.Info("v")
	if phys[0].Codec != codec.Raw {
		t.Errorf("default codec %s", phys[0].Codec)
	}
}

func TestWriterRejectsDimensionChange(t *testing.T) {
	s := newStore(t, Options{})
	s.Create("v", 0)
	w, _ := s.OpenWriter("v", WriteSpec{FPS: 8, Codec: codec.H264})
	if err := w.Append(frame.New(32, 24, frame.RGB)); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(frame.New(64, 48, frame.RGB)); err == nil {
		t.Error("dimension change mid-stream accepted")
	}
}

func TestWriterRawBlockSizing(t *testing.T) {
	// A raw write with a tiny block cap must split GOPs by bytes.
	s := newStore(t, Options{RawBlockBytes: int64(frame.RGB.Size(32, 24)) * 2, GOPFrames: 30})
	if err := s.Create("v", -1); err != nil {
		t.Fatal(err)
	}
	frames := make([]*frame.Frame, 6)
	for i := range frames {
		frames[i] = frame.New(32, 24, frame.RGB)
	}
	if err := s.Write("v", WriteSpec{FPS: 2, Codec: codec.Raw}, frames); err != nil {
		t.Fatal(err)
	}
	_, phys, _ := s.Info("v")
	if len(phys[0].GOPs) != 3 { // 2 frames per block
		t.Errorf("raw GOPs %d, want 3", len(phys[0].GOPs))
	}
}

func TestWriterSingleFrameBlocksForHugeFrames(t *testing.T) {
	// Frames above the block cap are stored one per GOP (the paper: "a
	// single frame for resolutions that exceed this threshold").
	s := newStore(t, Options{RawBlockBytes: 100, GOPFrames: 30})
	if err := s.Create("v", -1); err != nil {
		t.Fatal(err)
	}
	frames := []*frame.Frame{frame.New(32, 24, frame.RGB), frame.New(32, 24, frame.RGB)}
	if err := s.Write("v", WriteSpec{FPS: 2, Codec: codec.Raw}, frames); err != nil {
		t.Fatal(err)
	}
	_, phys, _ := s.Info("v")
	if len(phys[0].GOPs) != 2 {
		t.Errorf("GOPs %d, want one per frame", len(phys[0].GOPs))
	}
}

func TestWriteEncodedValidation(t *testing.T) {
	s := newStore(t, Options{})
	s.Create("v", 0)
	if err := s.WriteEncoded("v", 8, nil); err == nil {
		t.Error("empty encoded write accepted")
	}
	if err := s.WriteEncoded("v", 8, [][]byte{[]byte("junk")}); err == nil {
		t.Error("junk GOP accepted")
	}
	good, _, _ := codec.EncodeGOP(scene(4, 32, 32, 95), codec.H264, 80)
	bad, _, _ := codec.EncodeGOP(scene(4, 64, 48, 96), codec.H264, 80)
	if err := s.WriteEncoded("v", 8, [][]byte{good, bad}); err == nil {
		t.Error("mixed-resolution encoded write accepted")
	}
	if err := s.WriteEncoded("missing", 8, [][]byte{good}); err != ErrNotFound {
		t.Errorf("missing video: %v", err)
	}
}

// TestWriterCloseAfterFailedAppend pins the poisoned-writer contract:
// once an Append fails, Close must return that stored error — not attempt
// another flush of the dead buffer and report something else.
func TestWriterCloseAfterFailedAppend(t *testing.T) {
	s := newStore(t, Options{})
	if err := s.Create("v", 0); err != nil {
		t.Fatal(err)
	}
	w, err := s.OpenWriter("v", WriteSpec{FPS: 8, Codec: codec.H264})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(frame.New(32, 24, frame.RGB)); err != nil {
		t.Fatal(err)
	}
	appendErr := w.Append(frame.New(64, 48, frame.RGB))
	if appendErr == nil {
		t.Fatal("dimension change accepted")
	}
	if err := w.Close(); err != appendErr {
		t.Errorf("Close returned %v, want the stored append error %v", err, appendErr)
	}
	// The writer stays poisoned with the same error after Close.
	if err := w.Append(frame.New(32, 24, frame.RGB)); err != appendErr {
		t.Errorf("Append after failed Close returned %v, want %v", err, appendErr)
	}
	// The buffered pre-failure partial GOP must not have been committed by
	// the failing Close.
	_, phys, err := s.Info("v")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(phys[0].GOPs); n != 0 {
		t.Errorf("poisoned writer committed %d GOPs on Close", n)
	}
}

// TestWriterPipelineSurfacesEncodeError drives the asynchronous failure
// path: a GOP that cannot be encoded (odd dimensions under a compressed
// codec) is dispatched to the pipeline, and the error must surface on
// drain (Flush/Close) as the writer's sticky error with nothing committed
// after the failure point.
func TestWriterPipelineSurfacesEncodeError(t *testing.T) {
	s := newStore(t, Options{GOPFrames: 2})
	if err := s.Create("v", 0); err != nil {
		t.Fatal(err)
	}
	w, err := s.OpenWriterWith("v", WriteSpec{FPS: 8, Codec: codec.H264},
		WriteOptions{EncodeWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Odd dimensions pass the writer's shape check (it only compares
	// against the first frame) but fail inside the lossy encoder.
	for i := 0; i < 6; i++ {
		if err := w.Append(frame.New(33, 25, frame.RGB)); err != nil {
			// Backpressure may surface the error on a later Append; that
			// is allowed by the contract.
			break
		}
	}
	flushErr := w.Flush()
	if flushErr == nil {
		t.Fatal("pipeline swallowed the encode error")
	}
	if err := w.Close(); err != flushErr {
		t.Errorf("Close returned %v, want the stored pipeline error %v", err, flushErr)
	}
	_, phys, err := s.Info("v")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(phys[0].GOPs); n != 0 {
		t.Errorf("%d GOPs committed past an encode failure", n)
	}
}

// TestWriterPipelinedOrdering checks that a heavily parallel writer still
// commits GOPs in append order: the stored video must play back as the
// exact appended sequence.
func TestWriterPipelinedOrdering(t *testing.T) {
	s := newStore(t, Options{GOPFrames: 4, Workers: 8})
	if err := s.Create("v", 0); err != nil {
		t.Fatal(err)
	}
	frames := scene(40, 64, 48, 11)
	w, err := s.OpenWriterWith("v", WriteSpec{FPS: 8, Codec: codec.H264},
		WriteOptions{EncodeWorkers: 8, MaxInflightGOPs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(frames...); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, phys, err := s.Info("v")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(phys[0].GOPs); n != 10 {
		t.Fatalf("GOPs %d, want 10", n)
	}
	res, err := s.Read("v", ReadSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if res.FrameCount() != 40 {
		t.Fatalf("read %d frames, want 40", res.FrameCount())
	}
	p, err := quality.FramesPSNR(frames, res.Frames)
	if err != nil {
		t.Fatal(err)
	}
	if p < 18 {
		t.Errorf("decoded PSNR %.1f dB: GOPs committed out of order or corrupted", p)
	}
}

// TestWriteEncodedChunkedCommit exercises the bounded-chunk commit path of
// WriteEncoded with more GOPs than one chunk.
func TestWriteEncodedChunkedCommit(t *testing.T) {
	s := newStore(t, Options{})
	if err := s.Create("v", 0); err != nil {
		t.Fatal(err)
	}
	n := writeEncodedChunk*2 + 3
	gops := make([][]byte, n)
	for i := range gops {
		data, _, err := codec.EncodeGOP(scene(4, 32, 32, int64(200+i)), codec.H264, 80)
		if err != nil {
			t.Fatal(err)
		}
		gops[i] = data
	}
	if err := s.WriteEncoded("v", 8, gops); err != nil {
		t.Fatal(err)
	}
	_, phys, err := s.Info("v")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(phys[0].GOPs); got != n {
		t.Fatalf("GOPs %d, want %d", got, n)
	}
	res, err := s.Read("v", ReadSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if res.FrameCount() != 4*n {
		t.Errorf("read %d frames, want %d", res.FrameCount(), 4*n)
	}
}

func TestWriterMultipleFlushes(t *testing.T) {
	s := newStore(t, Options{GOPFrames: 4})
	s.Create("v", 0)
	w, _ := s.OpenWriter("v", WriteSpec{FPS: 4, Codec: codec.H264})
	frames := scene(10, 32, 32, 97)
	for _, f := range frames {
		if err := w.Append(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil { // idempotent with empty buffer
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Read("v", ReadSpec{})
	if err != nil || len(res.Frames) != 10 {
		t.Fatalf("read: %v, %d frames", err, len(res.Frames))
	}
	// GOP structure of the written original: 4+4+2. The read may have
	// admitted a view beside it, and Info lists physical videos in no
	// particular order.
	_, phys, _ := s.Info("v")
	origs := 0
	for _, p := range phys {
		if p.Orig {
			origs++
			if len(p.GOPs) != 3 {
				t.Errorf("GOPs %d, want 3", len(p.GOPs))
			}
		}
	}
	if origs != 1 {
		t.Errorf("%d original physical videos, want 1", origs)
	}
}
