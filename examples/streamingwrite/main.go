// Streamingwrite demonstrates VSS's non-blocking write path (Section 2):
// a camera goroutine appends frames through a streaming Writer while a
// reader concurrently queries prefixes of the video that are already
// durable — without waiting for the write to finish.
//
// Ingest is pipelined: each Writer compresses up to Options.Workers GOPs
// in parallel (the store's CPU budget, shared with reads) and lets at
// most 2*Workers GOPs buffer before Append blocks. GOPs still commit
// strictly in append order, so the reader below only ever sees a durable
// prefix of the stream; an encode failure would surface on a later
// Append or on Flush/Close, which drain the pipeline.
package main

import (
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"repro/internal/visualroad"
	"repro/vss"
)

func main() {
	dir, err := os.MkdirTemp("", "vss-streaming-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Two workers: one camera's GOPs compress two at a time, at most four
	// in flight, yet commit in order (see the package comment).
	sys, err := vss.Open(dir, vss.Options{GOPFrames: 8, Workers: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	const fps = 8
	const totalSeconds = 6
	frames := visualroad.Generate(visualroad.Config{Width: 160, Height: 96, FPS: fps, Seed: 4}, totalSeconds*fps)

	if err := sys.Create("live-cam", 0); err != nil {
		log.Fatal(err)
	}
	w, err := sys.OpenWriter("live-cam", vss.WriteSpec{FPS: fps, Codec: vss.H264})
	if err != nil {
		log.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // camera: appends one GOP worth of frames per "tick"
		defer wg.Done()
		for i := 0; i < len(frames); i += 8 {
			if err := w.Append(frames[i : i+8]...); err != nil {
				log.Fatal(err)
			}
			time.Sleep(20 * time.Millisecond)
		}
		if err := w.Close(); err != nil {
			log.Fatal(err)
		}
	}()

	// Reader: repeatedly query the growing prefix.
	for tick := 0; tick < 10; tick++ {
		time.Sleep(25 * time.Millisecond)
		// Ask for everything durable so far; track growth via the store.
		for sec := totalSeconds; sec >= 1; sec-- {
			res, err := sys.Read("live-cam", vss.ReadSpec{T: vss.Temporal{Start: 0, End: float64(sec)}})
			if err != nil {
				continue // prefix not yet durable
			}
			fmt.Printf("t+%3dms: read prefix [0, %ds) -> %d frames\n", tick*25, sec, len(res.Frames))
			break
		}
	}
	wg.Wait()

	res, err := sys.Read("live-cam", vss.ReadSpec{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("final read after close: %d frames (%d seconds)\n", len(res.Frames), len(res.Frames)/fps)
}
