package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
)

// tracedBackend is the storage.Backend the harness hands to vss.OpenWith
// in place of the real one. It forwards every call unchanged and, when a
// tracer is attached, records a span and a latency sample around it. That
// is how storage (and, wrapped around a router.Cluster, the router) is
// measured from outside the program.
//
// It forwards the optional read capabilities too — the context and
// expected-size variants — because storage.Instrumented discovers them by
// type assertion on the backend it was given: a wrapper that hid them would
// silently turn off trace propagation and stale-replica failover in the
// program under test.
type tracedBackend struct {
	inner storage.Backend
	layer string // layerStorage or layerRouter
	lane  int    // node index, for spans.json readers

	tr atomic.Pointer[tracer]

	mu      sync.Mutex
	readMs  []float64
	writeMs []float64
}

func newTracedBackend(inner storage.Backend, layer string, lane int) *tracedBackend {
	return &tracedBackend{inner: inner, layer: layer, lane: lane}
}

// attach starts (tr != nil) or stops (nil) recording and clears samples.
func (b *tracedBackend) attach(tr *tracer) {
	b.tr.Store(tr)
	b.mu.Lock()
	b.readMs, b.writeMs = nil, nil
	b.mu.Unlock()
}

func (b *tracedBackend) samples() (readMs, writeMs []float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]float64(nil), b.readMs...), append([]float64(nil), b.writeMs...)
}

// observe wraps one call. kind is "read", "write" or "" (not sampled).
func (b *tracedBackend) observe(ctx context.Context, name, kind string, call func() error) error {
	tr := b.tr.Load()
	if tr == nil {
		return call()
	}
	req := obs.TraceID(ctx)
	sp := tr.begin(name, b.layer, b.lane, tr.parentFor(req), req)
	start := time.Now()
	err := call()
	ms := float64(time.Since(start)) / 1e6
	sp.end()
	b.mu.Lock()
	switch kind {
	case "read":
		b.readMs = append(b.readMs, ms)
	case "write":
		b.writeMs = append(b.writeMs, ms)
	}
	b.mu.Unlock()
	return err
}

func (b *tracedBackend) Unwrap() storage.Backend { return b.inner }

func (b *tracedBackend) Name() string { return b.inner.Name() }

func (b *tracedBackend) WriteGOP(video, physDir string, seq int, data []byte) error {
	return b.observe(context.Background(), "WriteGOP", "write", func() error {
		return b.inner.WriteGOP(video, physDir, seq, data)
	})
}

func (b *tracedBackend) ReadGOP(video, physDir string, seq int) (data []byte, err error) {
	err = b.observe(context.Background(), "ReadGOP", "read", func() error {
		data, err = b.inner.ReadGOP(video, physDir, seq)
		return err
	})
	return data, err
}

func (b *tracedBackend) ReadGOPContext(ctx context.Context, video, physDir string, seq int) (data []byte, err error) {
	err = b.observe(ctx, "ReadGOP", "read", func() error {
		data, err = storage.ReadGOPCtx(ctx, b.inner, video, physDir, seq)
		return err
	})
	return data, err
}

func (b *tracedBackend) ReadGOPExpect(video, physDir string, seq int, want int64) (data []byte, err error) {
	return b.ReadGOPExpectContext(context.Background(), video, physDir, seq, want)
}

func (b *tracedBackend) ReadGOPExpectContext(ctx context.Context, video, physDir string, seq int, want int64) (data []byte, err error) {
	err = b.observe(ctx, "ReadGOP", "read", func() error {
		data, err = storage.ReadGOPExpectCtx(ctx, b.inner, video, physDir, seq, want)
		return err
	})
	return data, err
}

func (b *tracedBackend) GOPSize(video, physDir string, seq int) (n int64, err error) {
	err = b.observe(context.Background(), "GOPSize", "", func() error {
		n, err = b.inner.GOPSize(video, physDir, seq)
		return err
	})
	return n, err
}

func (b *tracedBackend) DeleteGOP(video, physDir string, seq int) error {
	return b.observe(context.Background(), "DeleteGOP", "", func() error { return b.inner.DeleteGOP(video, physDir, seq) })
}

func (b *tracedBackend) LinkGOP(video, srcDir string, srcSeq int, dstVideo, dstDir string, dstSeq int) error {
	return b.observe(context.Background(), "LinkGOP", "", func() error {
		return b.inner.LinkGOP(video, srcDir, srcSeq, dstVideo, dstDir, dstSeq)
	})
}

func (b *tracedBackend) DeletePhysical(video, physDir string) error {
	return b.observe(context.Background(), "DeletePhysical", "", func() error { return b.inner.DeletePhysical(video, physDir) })
}

func (b *tracedBackend) DeleteVideo(video string) error {
	return b.observe(context.Background(), "DeleteVideo", "", func() error { return b.inner.DeleteVideo(video) })
}

func (b *tracedBackend) Walk(fn func(video, physDir string, seq int, size int64) error) error {
	return b.observe(context.Background(), "Walk", "", func() error { return b.inner.Walk(fn) })
}
