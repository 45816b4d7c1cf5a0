package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/codec"
	"repro/internal/frame"
	"repro/internal/quality"
	"repro/internal/visualroad"
)

// Common shape of every workload: the repository's scaled "2K" working
// point, one-second GOPs, h264 q85 originals.
const (
	frameW, frameH = 480, 272
	fps            = 8
	gopFrames      = 8 // one second
	origQuality    = 85
	rawFrameBytes  = frameW * frameH * 3 / 2 // YUV420, the stored_ratio denominator
)

// Seed streams. Every stream of every workload is its own generator derived
// from --seed, so adding a draw to one stream never shifts another, and the
// warm-up never consumes the measured schedule.
const (
	streamContent = iota + 1
	streamSchedule
	streamWarmup
	streamArrivals
	streamVerify
)

func newRNG(seed int64, workload string, stream int) *rand.Rand {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s/%d", seed, workload, stream)))
	var v int64
	for _, b := range h[:8] {
		v = v<<8 | int64(b)
	}
	return rand.New(rand.NewSource(v))
}

// roadClip renders n frames of a procedural traffic scene. world picks the
// scene and is fixed per role (camera 0, library video 1, ...): the
// benchmark compares versions of the program, not scenes, so --seed moves
// only where in the scene the clip starts — which keeps compressibility and
// encode cost from swinging between seeds by more than a change would.
func roadClip(world int64, phase, n int) []*frame.Frame {
	w := visualroad.NewWorld(visualroad.Config{Width: frameW, Height: frameH, FPS: fps, Seed: world})
	out := make([]*frame.Frame, n)
	for t := range out {
		out[t] = w.LeftFrame(phase + t)
	}
	return out
}

// burstClip renders a burst-structured scene for predicate reads: a static
// vehicle-free backdrop, and during each active second a moving rectangle in
// the detector's red. Which whole seconds are active is the caller's
// choice, so the share of GOPs a summary can prune is known exactly.
func burstClip(seconds int, active map[int]bool) []*frame.Frame {
	base := frame.New(frameW, frameH, frame.RGB)
	for y := 0; y < frameH; y++ {
		for x := 0; x < frameW; x++ {
			base.SetRGB(x, y, byte(60+x*50/frameW), byte(60+y*40/frameH), 115)
		}
	}
	out := make([]*frame.Frame, seconds*fps)
	for i := range out {
		f := base.Clone()
		if active[i/fps] {
			cx := (i*9 + 12) % (frameW - 40)
			cy := frameH/2 - 10
			for y := cy; y < cy+20; y++ {
				for x := cx; x < cx+36; x++ {
					f.SetRGB(x, y, 220, 30, 30)
				}
			}
		}
		out[i] = f
	}
	return out
}

// activeSeconds marks, in every block of blockLen seconds, perBlock seconds
// chosen by rng. Queries are issued over whole blocks, so every query of a
// class does the same amount of work whichever block it lands on.
func activeSeconds(rng *rand.Rand, seconds, blockLen, perBlock int) map[int]bool {
	active := make(map[int]bool)
	for b := 0; b+blockLen <= seconds; b += blockLen {
		for _, off := range rng.Perm(blockLen)[:perBlock] {
			active[b+off] = true
		}
	}
	return active
}

// encodeGOPs pre-encodes frames into one-second h264 GOPs, for the camera
// mux that writes already-compressed video over the wire.
func encodeGOPs(frames []*frame.Frame) ([][]byte, error) {
	enc := codec.NewEncoder()
	var gops [][]byte
	for i := 0; i+gopFrames <= len(frames); i += gopFrames {
		g, _, err := enc.EncodeGOP(frames[i:i+gopFrames], codec.H264, origQuality)
		if err != nil {
			return nil, err
		}
		gops = append(gops, g)
	}
	return gops, nil
}

// zipfStarts deals window starts with a Zipf(s=1.1) popularity over n
// positions: position of rank k has weight 1/(k+1)^1.1. Two things about it
// are fixed rather than drawn, because each alone moved read throughput by
// 10-17% between seeds, more than the bounds:
//
//   - which positions are popular: a multiplicative scatter over the
//     timeline, so hot windows are not all neighbours. Whether the two
//     hottest windows overlap decides how much one read's cached view saves
//     the next.
//   - how often each position comes up: starts are dealt from a deck that
//     holds every position in its exact Zipf proportion, reshuffled by the
//     seed each time it runs out, instead of drawn independently.
//
// The seed decides the order.
type zipfStarts struct {
	rng  *rand.Rand
	deck []int
	left []int
}

// newZipfStarts builds a dealer over n positions with a deck of deckSize
// cards (largest-remainder rounding of the Zipf proportions).
func newZipfStarts(rng *rand.Rand, n, deckSize int) *zipfStarts {
	stride := max(int(float64(n)*0.618), 1) // near the golden section of n,
	for gcd(stride, n) != 1 {               // and coprime to it: a bijection
		stride++ //                            that puts consecutive ranks far apart
	}
	weights := make([]float64, n)
	var total float64
	for k := range weights {
		weights[k] = math.Pow(float64(k+1), -1.1)
		total += weights[k]
	}
	type share struct {
		pos  int
		frac float64
	}
	z := &zipfStarts{rng: rng}
	var rest []share
	for k, w := range weights {
		exact := w / total * float64(deckSize)
		pos := k * stride % n
		for i := 0; i < int(exact); i++ {
			z.deck = append(z.deck, pos)
		}
		rest = append(rest, share{pos, exact - math.Floor(exact)})
	}
	sort.SliceStable(rest, func(i, j int) bool { return rest[i].frac > rest[j].frac })
	for i := 0; len(z.deck) < deckSize; i++ {
		z.deck = append(z.deck, rest[i%len(rest)].pos)
	}
	return z
}

func (z *zipfStarts) next() int {
	if len(z.left) == 0 {
		z.left = append(z.left, z.deck...)
		z.rng.Shuffle(len(z.left), func(i, j int) { z.left[i], z.left[j] = z.left[j], z.left[i] })
	}
	pos := z.left[0]
	z.left = z.left[1:]
	return pos
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// poissonArrivals returns arrival offsets in seconds at the given rate,
// covering [0, seconds).
func poissonArrivals(rng *rand.Rand, rate, seconds float64) []float64 {
	var out []float64
	for t := rng.ExpFloat64() / rate; t < seconds; t += rng.ExpFloat64() / rate {
		out = append(out, t)
	}
	return out
}

// scheduleHasher fingerprints an op schedule, so a test (and a reader of two
// reports) can tell that the same seed gave the same inputs.
type scheduleHasher struct{ h [32]byte }

func (s *scheduleHasher) add(parts ...any) {
	s.h = sha256.Sum256(append(s.h[:], []byte(fmt.Sprint(parts...))...))
}

func (s *scheduleHasher) String() string { return hex.EncodeToString(s.h[:8]) }

// psnrYUV is the PSNR between two frames of equal size after bringing
// both to YUV420, the layout every lossy codec here stores; 0 if they
// cannot be compared.
func psnrYUV(a, b *frame.Frame) float64 {
	p, err := quality.PSNR(a.Convert(frame.YUV420), b.Convert(frame.YUV420))
	if err != nil {
		return 0
	}
	return p
}
