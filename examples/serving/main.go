// Serving walkthrough: start the vssd serving subsystem in-process, write
// a video over HTTP GOP by GOP, stream a read back while it decodes, and
// inspect the live metrics — the network-facing version of the quickstart.
//
// Everything here speaks the same wire protocol as the standalone daemon
// (`go run ./cmd/vssd -store DIR`), so each step translates directly:
//
//	PUT  /videos/{name}          create
//	POST /videos/{name}/gops     write encoded GOPs (framed body, ?fps=)
//	GET  /videos/{name}/read     streaming read (spec in query params)
//	GET  /metrics                live counters
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"

	"repro/internal/codec"
	"repro/internal/server"
	"repro/internal/visualroad"
	"repro/vss"
)

func main() {
	dir, err := os.MkdirTemp("", "vss-serving-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. Open a store and serve it. cmd/vssd does exactly this, plus
	// flags and signal handling.
	sys, err := vss.Open(dir, vss.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	srv := server.New(sys, server.Config{
		MaxInFlightReads: 8,
		CacheBytes:       32 << 20,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, srv)
	fmt.Printf("serving on http://%s\n", ln.Addr())

	ctx := context.Background()
	c := &server.Client{Base: "http://" + ln.Addr().String(), Name: "walkthrough"}

	// 2. Create a video and write 8 seconds of synthetic footage over
	// HTTP, one encoded GOP per second — the cadence of a live camera
	// pushing pre-compressed segments.
	const fps = 8
	if err := c.Create(ctx, "lobby", 0); err != nil {
		log.Fatal(err)
	}
	frames := visualroad.Generate(visualroad.Config{Width: 96, Height: 64, FPS: fps, Seed: 3}, 8*fps)
	for i := 0; i < len(frames); i += fps {
		gop, _, err := codec.EncodeGOP(frames[i:i+fps], codec.H264, 85)
		if err != nil {
			log.Fatal(err)
		}
		if err := c.WriteGOPs(ctx, "lobby", fps, [][]byte{gop}); err != nil {
			log.Fatal(err)
		}
	}
	stat, err := c.Stat(ctx, "lobby")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %.0fs of video (%d bytes across %d views)\n",
		stat.Duration, stat.Bytes, len(stat.Views))

	// 3. Stream a transcoded read. Chunks arrive as the parallel decode
	// pipeline produces them — the client is consuming GOP 1 while the
	// server still transcodes GOP 5 — and a dropped connection would
	// cancel the remaining work.
	hdr, next, stop, err := c.StreamingRead(ctx, "lobby", "start=1&end=7&codec=hevc")
	if err != nil {
		log.Fatal(err)
	}
	defer stop()
	total := 0
	for i := 0; ; i++ {
		chunk, err := next()
		if err == io.EOF {
			break // the terminator chunk: the stream is complete
		}
		if err != nil {
			// Anything else means the stream was truncated mid-flight (a
			// server error or cancellation) — never mistake it for EOF.
			log.Fatal(err)
		}
		total += len(chunk)
		fmt.Printf("  streamed GOP %d: %d bytes\n", i, len(chunk))
	}
	fmt.Printf("streamed %dx%d@%dfps %s, %d bytes total\n",
		hdr.Width, hdr.Height, hdr.FPS, hdr.Codec, total)

	// 4. Repeat the read: the hot-response LRU serves it without touching
	// the store. Both reads rode the adaptive response path — small GOPs
	// coalesce into one pooled buffer and flush on a byte/latency window
	// (the first chunk immediately, keeping time-to-first-frame bounded),
	// while 64KiB+ payloads go to the wire zero-copy. The wire bytes are
	// identical either way; only write boundaries move.
	hdr, gops, err := c.ReadAll(ctx, "lobby", "start=1&end=7&codec=hevc")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("repeat read: %d GOPs, cache hit = %v\n", len(gops), hdr.CacheHit)

	// 5. Live metrics: read counts, cache hit rate, admission gauges, and
	// the response-path section — flush coalescing, buffer-pool hit rate,
	// and time-to-first-byte quantiles (docs/METRICS.md documents every
	// field). The `serve_hot` workload in benchmark/ drives this same path
	// with Poisson arrivals over many keep-alive connections.
	m, err := c.Metrics(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("metrics: %d reads completed, %d cancelled, cache hit rate %.0f%%, %d GOPs decoded, queue depth %d\n",
		m.Reads.Completed, m.Reads.Cancelled, 100*m.Cache.HitRate,
		m.Reads.GOPsDecoded, m.Admission.QueueDepth)
	fmt.Printf("response path: %d flushes, %d coalesced chunks, pool hit rate %.0f%%, p99 TTFB %.1fms\n",
		m.Response.Flushes, m.Response.CoalescedChunks,
		100*m.Response.PoolHitRate, m.Response.TTFBP99Millis)
}
