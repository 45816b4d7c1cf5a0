package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/codec"
	"repro/internal/quality"
)

// This file stress-tests the two-tier locking architecture: reads, writes,
// maintenance, compaction, joint compression, and deletes racing across
// multiple videos. Run with -race (CI does) to validate the locking
// contracts documented in store.go.

// TestConcurrentReadWriteMaintain hammers every public mutation path at
// once across several videos. Correctness bar: no data race, no deadlock,
// and every read that succeeds returns intact frames.
func TestConcurrentReadWriteMaintain(t *testing.T) {
	s := newStore(t, Options{GOPFrames: 8, BudgetMultiple: 4})
	const nVideos = 3
	names := make([]string, nVideos)
	for i := range names {
		names[i] = fmt.Sprintf("cam-%d", i)
		writeVideo(t, s, names[i], scene(24, 64, 48, int64(100+i)), 8, codec.H264)
	}

	specs := []ReadSpec{
		{},
		{S: Spatial{Width: 32, Height: 24}},
		{T: Temporal{Start: 1, End: 2}},
		{P: Physical{Codec: codec.HEVC, Quality: 70, MinPSNR: 20}},
		{S: Spatial{Width: 32, Height: 24}, P: Physical{Codec: codec.H264, Quality: 80, MinPSNR: 20}},
	}

	var wg sync.WaitGroup
	var readErr, writeErr, maintErr atomic.Value
	const itersPerWorker = 6

	// Readers: every video, varied specs, all at once.
	for vi := 0; vi < nVideos; vi++ {
		for si := range specs {
			wg.Add(1)
			go func(name string, spec ReadSpec) {
				defer wg.Done()
				for it := 0; it < itersPerWorker; it++ {
					res, err := s.Read(name, spec)
					if err != nil {
						readErr.Store(fmt.Errorf("read %s: %w", name, err))
						return
					}
					if res.FrameCount() == 0 {
						readErr.Store(fmt.Errorf("read %s: empty result", name))
						return
					}
				}
			}(names[vi], specs[si])
		}
	}

	// Writers: stream more GOPs onto every video while it is being read.
	for vi := 0; vi < nVideos; vi++ {
		wg.Add(1)
		go func(name string, seed int64) {
			defer wg.Done()
			w, err := s.OpenWriter(name, WriteSpec{FPS: 8, Codec: codec.H264})
			if err != nil {
				writeErr.Store(err)
				return
			}
			defer w.Close()
			for it := 0; it < itersPerWorker; it++ {
				if err := w.Append(scene(8, 64, 48, seed)...); err != nil {
					writeErr.Store(fmt.Errorf("append %s: %w", name, err))
					return
				}
			}
			if err := w.Flush(); err != nil {
				writeErr.Store(fmt.Errorf("flush %s: %w", name, err))
			}
		}(names[vi], int64(100+vi))
	}

	// Background maintenance, compaction, and catalog readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for it := 0; it < itersPerWorker*2; it++ {
			if err := s.Maintain(); err != nil {
				maintErr.Store(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for it := 0; it < itersPerWorker*2; it++ {
			for _, name := range names {
				if _, err := s.CompactVideo(name); err != nil {
					maintErr.Store(err)
					return
				}
				if _, _, err := s.Info(name); err != nil {
					maintErr.Store(err)
					return
				}
				if _, err := s.TotalBytes(name); err != nil {
					maintErr.Store(err)
					return
				}
			}
		}
	}()

	// Create/delete churn on a video nobody else uses: registry traffic
	// must not disturb per-video work.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for it := 0; it < itersPerWorker; it++ {
			if err := s.Create("scratch", -1); err != nil {
				maintErr.Store(err)
				return
			}
			if err := s.Write("scratch", WriteSpec{FPS: 8, Codec: codec.Raw}, scene(8, 32, 24, 7)); err != nil {
				maintErr.Store(err)
				return
			}
			if err := s.Delete("scratch"); err != nil {
				maintErr.Store(err)
				return
			}
		}
	}()

	wg.Wait()
	for _, v := range []atomic.Value{readErr, writeErr, maintErr} {
		if err, ok := v.Load().(error); ok {
			t.Fatal(err)
		}
	}

	// The store must still be coherent: a full read of each video round-
	// trips through whatever mix of views the race left behind.
	for i, name := range names {
		res, err := s.Read(name, ReadSpec{})
		if err != nil {
			t.Fatalf("final read %s: %v", name, err)
		}
		want := 24 + itersPerWorker*8 // initial scene + streamed appends
		if res.FrameCount() != want {
			t.Errorf("%s: %d frames after churn, want %d", name, res.FrameCount(), want)
		}
		ref := scene(24, 64, 48, int64(100+i))
		p, err := quality.FramesPSNR(ref[:8], res.Frames[:8])
		if err != nil {
			t.Fatal(err)
		}
		// A single synthetic-codec encode lands near 24-25 dB on this
		// scene; corruption (mixed-up frames, torn GOPs) lands far below.
		if p < 18 {
			t.Errorf("%s: decoded prefix PSNR %.1f dB, content corrupted", name, p)
		}
	}
}

// TestConcurrentReadsOfDeletedVideo checks the delete/read race contract:
// a read either completes with data or fails with ErrNotFound — never a
// partial result or an internal error. Streams are held to the same
// contract: one that lost the race may have delivered frames before it
// reports ErrNotFound, but never ends early without it.
func TestConcurrentReadsOfDeletedVideo(t *testing.T) {
	pred, err := ParsePredicate("count >= 0") // every frame matches
	if err != nil {
		t.Fatal(err)
	}
	// Each input reads all of "v" and returns the frames it delivered.
	inputs := []struct {
		name string
		read func(s *Store) (int, error)
	}{
		{"Read", func(s *Store) (int, error) {
			res, err := s.Read("v", ReadSpec{})
			if err != nil {
				return 0, err
			}
			return res.FrameCount(), nil
		}},
		{"ReadStream", func(s *Store) (int, error) {
			st, err := s.ReadStream(context.Background(), "v", ReadSpec{})
			if err != nil {
				return 0, err
			}
			defer st.Close()
			n := 0
			for {
				b, err := st.Next()
				if err == io.EOF {
					return n, nil
				}
				if err != nil {
					return n, err
				}
				n += b.FrameCount()
			}
		}},
		{"ReadStreamWhere", func(s *Store) (int, error) {
			st, err := s.ReadStreamWhere(context.Background(), "v", pred, 0, 0)
			if err != nil {
				return 0, err
			}
			defer st.Close()
			n := 0
			for {
				b, err := st.Next()
				if err == io.EOF {
					return n, nil
				}
				if err != nil {
					return n, err
				}
				n += len(b.Matches)
			}
		}},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			s := newStore(t, Options{GOPFrames: 8})
			writeVideo(t, s, "v", scene(16, 64, 48, 5), 8, codec.H264)

			var wg sync.WaitGroup
			errc := make(chan error, 16)
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						n, err := in.read(s)
						if errors.Is(err, ErrNotFound) {
							return
						}
						if err != nil {
							errc <- err
							return
						}
						if n != 16 {
							errc <- fmt.Errorf("partial read: %d frames", n)
							return
						}
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := s.Delete("v"); err != nil {
					errc <- err
				}
			}()
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Error(err)
			}
		})
	}
}

// TestParallelReadsDifferentVideos verifies the headline invariant of the
// architecture: reads of different videos do not serialize on a global
// lock. It cannot assert wall-clock overlap portably, but it drives many
// simultaneous readers through distinct per-video locks and checks every
// result, which under -race proves the paths are actually concurrent.
func TestParallelReadsDifferentVideos(t *testing.T) {
	s := newStore(t, Options{GOPFrames: 8})
	const nVideos = 4
	for i := 0; i < nVideos; i++ {
		writeVideo(t, s, fmt.Sprintf("v%d", i), scene(16, 64, 48, int64(i)), 8, codec.H264)
	}
	var wg sync.WaitGroup
	errc := make(chan error, nVideos*4)
	for i := 0; i < nVideos*4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("v%d", i%nVideos)
			res, err := s.Read(name, ReadSpec{})
			if err != nil {
				errc <- err
				return
			}
			if res.FrameCount() != 16 {
				errc <- fmt.Errorf("%s: got %d frames", name, res.FrameCount())
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestPipelinedWriterPrefixReaders races one pipelined writer against
// concurrent readers of the same video and asserts the ingest pipeline's
// ordering guarantee: every successful read observes a durable GOP prefix
// — a whole number of GOPs, never shrinking, with the newest GOP holding
// the frames that were appended at that position. Run with -race (CI
// does).
func TestPipelinedWriterPrefixReaders(t *testing.T) {
	const (
		gop     = 8
		nGOPs   = 12
		readers = 4
	)
	s := newStore(t, Options{GOPFrames: gop, Workers: 8, BudgetMultiple: -1})
	if err := s.Create("live", -1); err != nil {
		t.Fatal(err)
	}
	ref := scene(gop*nGOPs, 64, 48, 33)

	var wg sync.WaitGroup
	errc := make(chan error, readers+1)
	writerDone := make(chan struct{})

	wg.Add(1)
	go func() { // camera: pipelined ingest, one GOP per Append
		defer wg.Done()
		defer close(writerDone)
		w, err := s.OpenWriter("live", WriteSpec{FPS: 8, Codec: codec.H264})
		if err != nil {
			errc <- err
			return
		}
		for i := 0; i < len(ref); i += gop {
			if err := w.Append(ref[i : i+gop]...); err != nil {
				errc <- fmt.Errorf("append: %w", err)
				return
			}
		}
		if err := w.Close(); err != nil {
			errc <- fmt.Errorf("close: %w", err)
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for {
				select {
				case <-writerDone:
					return
				default:
				}
				res, err := s.Read("live", ReadSpec{})
				if err != nil {
					// Nothing durable yet; the read plan has no GOPs.
					continue
				}
				n := res.FrameCount()
				if n%gop != 0 {
					errc <- fmt.Errorf("read observed %d frames: not a whole-GOP prefix", n)
					return
				}
				if n < last {
					errc <- fmt.Errorf("prefix shrank from %d to %d frames", last, n)
					return
				}
				last = n
				if n == 0 {
					continue
				}
				// The newest visible GOP must hold the frames appended at
				// that position: out-of-order commits would land far below
				// the codec's ~24 dB single-encode fidelity.
				p, err := quality.FramesPSNR(ref[n-gop:n], res.Frames[n-gop:n])
				if err != nil {
					errc <- err
					return
				}
				if p < 18 {
					errc <- fmt.Errorf("GOP at frames [%d,%d) PSNR %.1f dB: prefix holds wrong data", n-gop, n, p)
					return
				}
			}
		}()
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	res, err := s.Read("live", ReadSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if res.FrameCount() != len(ref) {
		t.Fatalf("final read %d frames, want %d", res.FrameCount(), len(ref))
	}
	p, err := quality.FramesPSNR(ref, res.Frames)
	if err != nil {
		t.Fatal(err)
	}
	if p < 18 {
		t.Errorf("final PSNR %.1f dB, content corrupted", p)
	}
}

// TestWorkersOptionSerialExecution pins the Workers=1 degenerate case: the
// pipeline must produce identical results with no parallelism.
func TestWorkersOptionSerialExecution(t *testing.T) {
	s := newStore(t, Options{GOPFrames: 8, Workers: 1})
	writeVideo(t, s, "v", scene(16, 64, 48, 9), 8, codec.H264)
	res, err := s.Read("v", ReadSpec{S: Spatial{Width: 32, Height: 24}})
	if err != nil {
		t.Fatal(err)
	}
	if res.FrameCount() != 16 || res.Width != 32 || res.Height != 24 {
		t.Fatalf("serial pipeline result %dx%d, %d frames", res.Width, res.Height, res.FrameCount())
	}
	if s.opts.Workers != 1 {
		t.Errorf("Workers option not preserved: %d", s.opts.Workers)
	}
}
