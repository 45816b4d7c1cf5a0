package vss_test

import (
	"context"
	"errors"
	"io"
	"testing"

	"repro/internal/visualroad"
	"repro/vss"
)

func openSys(t *testing.T) *vss.System {
	t.Helper()
	sys, err := vss.Open(t.TempDir(), vss.Options{GOPFrames: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys
}

func genFrames(n int) []*vss.Frame {
	return visualroad.Generate(visualroad.Config{Width: 96, Height: 64, FPS: 8, Seed: 71}, n)
}

func TestPublicAPILifecycle(t *testing.T) {
	sys := openSys(t)
	if err := sys.Create("traffic", 0); err != nil {
		t.Fatal(err)
	}
	if err := sys.Write("traffic", vss.WriteSpec{FPS: 8, Codec: vss.H264}, genFrames(16)); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Read("traffic", vss.ReadSpec{
		S: vss.Spatial{Width: 48, Height: 32},
		T: vss.Temporal{Start: 0, End: 1},
		P: vss.Physical{Format: vss.RGB},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frames) != 8 || res.Frames[0].Width != 48 {
		t.Errorf("read %d frames at width %d", len(res.Frames), res.Frames[0].Width)
	}
	if got := sys.Videos(); len(got) != 1 || got[0] != "traffic" {
		t.Errorf("videos %v", got)
	}
	if n, err := sys.TotalBytes("traffic"); err != nil || n <= 0 {
		t.Errorf("total bytes %d %v", n, err)
	}
	if err := sys.Delete("traffic"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Read("traffic", vss.ReadSpec{}); err != vss.ErrNotFound {
		t.Errorf("read after delete: %v", err)
	}
}

func TestPublicAPICompressedRead(t *testing.T) {
	sys := openSys(t)
	sys.Create("v", 0)
	if err := sys.Write("v", vss.WriteSpec{FPS: 8, Codec: vss.H264}, genFrames(16)); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Read("v", vss.ReadSpec{P: vss.Physical{Codec: vss.HEVC}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.GOPs) == 0 {
		t.Error("compressed read returned no GOPs")
	}
	if res.FrameCount() != 16 {
		t.Errorf("frame count %d", res.FrameCount())
	}
}

func TestPublicAPIStreamingWriter(t *testing.T) {
	sys := openSys(t)
	sys.Create("live", 0)
	w, err := sys.OpenWriter("live", vss.WriteSpec{FPS: 8, Codec: vss.H264})
	if err != nil {
		t.Fatal(err)
	}
	frames := genFrames(16)
	if err := w.Append(frames...); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Read("live", vss.ReadSpec{})
	if err != nil || len(res.Frames) != 16 {
		t.Fatalf("read: %v %d", err, len(res.Frames))
	}
}

func TestPublicAPIPipelinedWriter(t *testing.T) {
	sys, err := vss.Open(t.TempDir(), vss.Options{GOPFrames: 8, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	sys.Create("live", 0)
	w, err := sys.OpenWriter("live", vss.WriteSpec{FPS: 8, Codec: vss.H264})
	if err != nil {
		t.Fatal(err)
	}
	frames := genFrames(40)
	for i := 0; i < len(frames); i += 8 {
		if err := w.Append(frames[i : i+8]...); err != nil {
			t.Fatal(err)
		}
	}
	// Flush drains the pipeline: everything appended must now be durable.
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Read("live", vss.ReadSpec{})
	if err != nil || res.FrameCount() != 40 {
		t.Fatalf("read after flush: %v, %d frames", err, res.FrameCount())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIStreamingRead(t *testing.T) {
	sys := openSys(t)
	sys.Create("v", 0)
	if err := sys.Write("v", vss.WriteSpec{FPS: 8, Codec: vss.H264}, genFrames(24)); err != nil {
		t.Fatal(err)
	}
	st, err := sys.ReadStream(context.Background(), "v", vss.ReadSpec{P: vss.Physical{Codec: vss.HEVC}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	total := 0
	for {
		batch, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		total += batch.FrameCount()
	}
	if total != 24 {
		t.Errorf("streamed %d frames, want 24", total)
	}
	if st.Stats().GOPsDecoded == 0 {
		t.Error("stream stats report no decoded GOPs")
	}
	// Cancellation: an already-cancelled context refuses to start.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.ReadStream(ctx, "v", vss.ReadSpec{}); !errors.Is(err, context.Canceled) {
		t.Errorf("ReadStream on cancelled ctx: %v", err)
	}
	if _, err := sys.ReadContext(ctx, "v", vss.ReadSpec{}); !errors.Is(err, context.Canceled) {
		t.Errorf("ReadContext on cancelled ctx: %v", err)
	}
}

func TestPublicAPIMaintenance(t *testing.T) {
	sys := openSys(t)
	sys.Create("v", 0)
	sys.Write("v", vss.WriteSpec{FPS: 8, Codec: vss.H264}, genFrames(16))
	if err := sys.Maintain(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Compact("v"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.JointCompress(vss.MergeUnprojected); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIBackends(t *testing.T) {
	dir := t.TempDir()
	roots := vss.ShardRoots(dir, 3)
	if len(roots) != 3 || roots[0] == roots[1] {
		t.Fatalf("shard roots %v", roots)
	}
	backend, err := vss.NewShardedBackend(roots, 2)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := vss.OpenWith(dir, vss.Options{GOPFrames: 8}, backend)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.Create("cam", 0); err != nil {
		t.Fatal(err)
	}
	if err := sys.Write("cam", vss.WriteSpec{FPS: 8, Codec: vss.H264}, genFrames(16)); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Read("cam", vss.ReadSpec{T: vss.Temporal{Start: 0, End: 1}})
	if err != nil || len(res.Frames) != 8 {
		t.Fatalf("sharded read: %v, %d frames", err, len(res.Frames))
	}
	st := sys.BackendStats()
	if st.Backend != "sharded" || st.Writes == 0 || st.Reads == 0 || st.BytesRead == 0 {
		t.Errorf("backend stats %+v", st)
	}
	if err := sys.Maintain(); err != nil {
		t.Fatal(err)
	}
	rep, ok := sys.ReplicationStats()
	if !ok || rep.Shards != 3 || rep.Replicas != 2 || rep.Scrubs == 0 {
		t.Errorf("replication stats %+v ok=%v", rep, ok)
	}
	if rep.LastScrub.Checked == 0 || rep.LastScrub.Unrecoverable != 0 {
		t.Errorf("scrub stats %+v", rep.LastScrub)
	}

	memSys, err := vss.OpenWith(t.TempDir(), vss.Options{GOPFrames: 8}, vss.NewMemBackend())
	if err != nil {
		t.Fatal(err)
	}
	defer memSys.Close()
	if err := memSys.Create("m", 0); err != nil {
		t.Fatal(err)
	}
	if err := memSys.Write("m", vss.WriteSpec{FPS: 8, Codec: vss.H264}, genFrames(8)); err != nil {
		t.Fatal(err)
	}
	if st := memSys.BackendStats(); st.Backend != "mem" {
		t.Errorf("mem backend stats %+v", st)
	}
	if _, ok := memSys.ReplicationStats(); ok {
		t.Error("mem backend reported replication stats")
	}
}
