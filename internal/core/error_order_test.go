package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/codec"
)

// corruptGOPInPlace overwrites every stored copy of one GOP of the
// video's original view with garbage of the same length, behind the
// store's back: the size the catalog expects still matches, so the
// bytes reach the decoder, which reports the failure.
func corruptGOPInPlace(t *testing.T, dir, video string, seq int) {
	t.Helper()
	name := fmt.Sprintf("%d.gop", seq)
	n := 0
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || info.Name() != name ||
			filepath.Base(filepath.Dir(filepath.Dir(path))) != video {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i := range data {
			data[i] = 0xFF
		}
		n++
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatalf("no stored copy of GOP %d of %s", seq, video)
	}
}

// TestStreamErrorOrder pins the streams' error contract: a failure at a
// later unit must not cost the consumer any earlier unit. Every GOP
// before the corrupt one is delivered in full, then the decode error —
// never a cancellation — ends the stream. Workers: 2 lets a later unit
// fail while an earlier one is still in flight, and the loop gives the
// race many chances.
func TestStreamErrorOrder(t *testing.T) {
	skipWithoutGOPFiles(t)
	const gop, bad = 8, 2 // GOP size, index of the corrupt GOP
	dir := t.TempDir()
	s, err := Open(dir, Options{GOPFrames: gop, Workers: 2, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	writeVideo(t, s, "v", scene(6*gop, 64, 48, 41), 8, codec.H264)
	corruptGOPInPlace(t, dir, "v", bad)
	pred, err := ParsePredicate("count >= 0") // every frame of every GOP matches
	if err != nil {
		t.Fatal(err)
	}
	checkEnd := func(t *testing.T, i, got int, err error) {
		t.Helper()
		if got != bad*gop {
			t.Fatalf("iteration %d: %d frames delivered before the error, want %d", i, got, bad*gop)
		}
		if err == nil || err == io.EOF || errors.Is(err, context.Canceled) || errors.Is(err, errStreamClosed) {
			t.Fatalf("iteration %d: stream ended with %v, want the decode error", i, err)
		}
	}

	t.Run("ReadStreamWhere", func(t *testing.T) {
		for i := 0; i < 50; i++ {
			st, err := s.ReadStreamWhere(context.Background(), "v", pred, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			got := 0
			for {
				b, err := st.Next()
				if err != nil {
					checkEnd(t, i, got, err)
					break
				}
				for _, m := range b.Matches {
					if m.Index != got {
						t.Fatalf("iteration %d: match %d has index %d", i, got, m.Index)
					}
					got++
				}
			}
			st.Close()
		}
	})
	t.Run("ReadStream", func(t *testing.T) {
		for i := 0; i < 50; i++ {
			st, err := s.ReadStream(context.Background(), "v", ReadSpec{})
			if err != nil {
				t.Fatal(err)
			}
			got := 0
			for {
				b, err := st.Next()
				if err != nil {
					checkEnd(t, i, got, err)
					break
				}
				got += len(b.Frames)
			}
			st.Close()
		}
	})
}
