package core

import (
	"bytes"
	"context"
	"io"
	"testing"

	"repro/internal/codec"
)

// drainGOPs consumes a compressed stream to EOF and returns its GOPs.
func drainGOPs(t *testing.T, st *ReadStream) [][]byte {
	t.Helper()
	var gops [][]byte
	for _, b := range collect(t, st) {
		if b.GOP == nil {
			t.Fatal("compressed stream produced a non-GOP batch")
		}
		gops = append(gops, b.GOP)
	}
	return gops
}

// TestStreamAdmitsTranscodedView verifies the serving-gap fix: a
// compressed transcode stream cache-admits its output on clean EOF, so
// the second stream of the same spec plans as pure passthrough (no decode
// work) and yields byte-identical GOPs — as does a batch Read.
func TestStreamAdmitsTranscodedView(t *testing.T) {
	s := newStore(t, Options{BudgetMultiple: -1})
	writeVideo(t, s, "v", scene(48, 64, 48, 7), 8, codec.H264)

	spec := ReadSpec{P: Physical{Codec: codec.HEVC}}
	st, err := s.ReadStream(context.Background(), "v", spec)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	first := drainGOPs(t, st)
	if !st.Stats().Admitted {
		t.Fatal("transcode stream did not cache-admit its output")
	}
	if st.Stats().GOPsDecoded == 0 {
		t.Fatal("first transcode stream reported no decode work")
	}

	st2, err := s.ReadStream(context.Background(), "v", spec)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	second := drainGOPs(t, st2)
	if got := st2.Stats().GOPsDecoded; got != 0 {
		t.Errorf("second stream decoded %d GOPs, want 0 (passthrough of the admitted view)", got)
	}
	if st2.Stats().Admitted {
		t.Error("passthrough stream re-admitted an existing view")
	}
	if len(first) != len(second) {
		t.Fatalf("second stream yielded %d GOPs, first %d", len(second), len(first))
	}
	for i := range first {
		if !bytes.Equal(first[i], second[i]) {
			t.Fatalf("GOP %d differs between pre- and post-admission streams", i)
		}
	}

	// The batch path agrees byte-for-byte after admission.
	res, err := s.Read("v", spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.GOPs) != len(first) {
		t.Fatalf("batch read yielded %d GOPs, stream %d", len(res.GOPs), len(first))
	}
	for i := range first {
		if !bytes.Equal(first[i], res.GOPs[i]) {
			t.Fatalf("GOP %d differs between stream and batch after admission", i)
		}
	}
}

// TestStreamAdmitDisabled verifies the admission bound: with a bound
// smaller than the output the stream delivers everything but admits
// nothing.
func TestStreamAdmitDisabled(t *testing.T) {
	t.Run("outgrown", func(t *testing.T) {
		s := newStore(t, Options{BudgetMultiple: -1})
		s.streamAdmitBytes = 16
		writeVideo(t, s, "v", scene(24, 48, 32, 5), 8, codec.H264)

		spec := ReadSpec{P: Physical{Codec: codec.HEVC}}
		st, err := s.ReadStream(context.Background(), "v", spec)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if gops := drainGOPs(t, st); len(gops) == 0 {
			t.Fatal("stream yielded no GOPs")
		}
		if st.Stats().Admitted {
			t.Fatal("stream admitted despite the bound")
		}
		st2, err := s.ReadStream(context.Background(), "v", spec)
		if err != nil {
			t.Fatal(err)
		}
		defer st2.Close()
		drainGOPs(t, st2)
		if st2.Stats().GOPsDecoded == 0 {
			t.Error("second stream decoded nothing — something admitted anyway")
		}
	})
}

// TestStreamAdmitSkipsPassthrough verifies a same-format stream (already
// served entirely by one view in the output configuration) does not admit
// a duplicate view.
func TestStreamAdmitSkipsPassthrough(t *testing.T) {
	s := newStore(t, Options{BudgetMultiple: -1})
	writeVideo(t, s, "v", scene(24, 48, 32, 5), 8, codec.H264)

	st, err := s.ReadStream(context.Background(), "v", ReadSpec{P: Physical{Codec: codec.H264}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for {
		if _, err := st.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if st.Stats().Admitted {
		t.Fatal("pure passthrough stream admitted a duplicate view")
	}
}
