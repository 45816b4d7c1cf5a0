package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// This file is the receiving half of the framed-chunk codec (docs/WIRE.md
// §Framed chunks) and the header encoding both halves share; the sending
// half is chunkWriter (flush.go). Every framed stream — the client's read
// and query responses, the storage-plane walk, and the batch-write request
// body — is parsed by chunkReader.next and nowhere else.

// chunkHeaderLen is the wire framing overhead per chunk: a 4-byte
// big-endian payload length.
const chunkHeaderLen = 4

// maxChunkBytes bounds a single framed chunk. Chunk lengths come off the
// wire, so they must be validated BEFORE allocation — a 4-byte request
// claiming a 4GiB chunk must cost nothing, not an OOM.
const maxChunkBytes = 1 << 28 // 256MiB; far beyond any real GOP or batch

// putPrealloc bounds what a length that came off the wire (a chunk header,
// or the Content-Length of a storage-plane GOP PUT or GET) reserves before
// its payload arrives: a typical encoded GOP or match fits in one
// allocation, and a header alone cannot pin much memory.
const putPrealloc = 1 << 20

// appendChunkHeader appends one chunk's length framing to b. A zero n is
// the clean-EOF terminator.
func appendChunkHeader(b []byte, n int) []byte {
	return binary.BigEndian.AppendUint32(b, uint32(n))
}

// chunkArena allocates one stream's chunk payloads so that the stream
// never allocates much more than it receives. Chunks are carved out of
// slabs, and each new slab is as large as all the bytes carved so far
// (at least the chunk, at most putPrealloc unless the chunk is larger).
// A stream's first chunk so gets an allocation of exactly its length,
// and later slabs double: many small chunks cost a handful of
// allocations, older slabs lose at most a tail shorter than one chunk,
// and only the newest can be mostly unused. Returned slices are
// full-length with capped capacity, so caller appends can never alias a
// neighbor. A retained chunk pins its slab, which is fine for the
// streaming consumption the reader exists for. Not safe for concurrent
// use.
type chunkArena struct {
	slab   []byte
	carved int // bytes handed out so far
}

func (a *chunkArena) alloc(n int) []byte {
	if len(a.slab) < n {
		a.slab = make([]byte, max(n, min(a.carved, putPrealloc)))
	}
	b := a.slab[:n:n]
	a.slab = a.slab[n:]
	a.carved += n
	return b
}

// read reads exactly n payload bytes whose count came off the wire. A
// payload of up to putPrealloc bytes is carved from the arena (a zero
// arena's first carve is one allocation of exactly n). A longer one is
// received in putPrealloc blocks, each allocated only once the one
// before it is full, and joined into one buffer of exactly n when the
// last byte is in: a length claim never reserves more than putPrealloc
// beyond the bytes that back it, and the payload is copied once.
func (a *chunkArena) read(r io.Reader, n int) ([]byte, error) {
	if n <= putPrealloc {
		buf := a.alloc(n)
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	var blocks [][]byte
	for got := 0; got < n; {
		b := make([]byte, min(n-got, putPrealloc))
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		blocks = append(blocks, b)
		got += len(b)
	}
	buf := make([]byte, 0, n)
	for _, b := range blocks {
		buf = append(buf, b...)
	}
	return buf, nil
}

// chunkReader reads one framed chunk stream. Every payload it returns is
// caller-owned and aliases no other. Not safe for concurrent use.
type chunkReader struct {
	body  io.ReadCloser
	arena chunkArena
	hdr   [chunkHeaderLen]byte // length prefix; a field so it does not escape per chunk
	eof   bool
}

// next returns the next chunk payload, or io.EOF once the zero-length
// terminator has been read and the body has ended right after it (the
// body is closed then, so an HTTP connection goes back to its pool). A
// body that ends without a terminator, a length above maxChunkBytes and
// a byte after the terminator are errors, so a truncated or garbled
// stream is never mistaken for a complete one.
func (r *chunkReader) next() ([]byte, error) {
	if r.eof {
		return nil, io.EOF
	}
	if _, err := io.ReadFull(r.body, r.hdr[:]); err != nil {
		return nil, fmt.Errorf("stream truncated before terminator: %w", err)
	}
	n := binary.BigEndian.Uint32(r.hdr[:])
	if n == 0 {
		if m, err := io.ReadFull(r.body, r.hdr[:1]); m > 0 {
			return nil, errors.New("data after the stream terminator")
		} else if err != io.EOF {
			return nil, fmt.Errorf("stream not ended after terminator: %w", err)
		}
		r.eof = true
		r.body.Close()
		return nil, io.EOF
	}
	if n > maxChunkBytes {
		// Validate before allocating: the length came off the wire.
		return nil, fmt.Errorf("chunk length %d exceeds limit %d", n, maxChunkBytes)
	}
	buf, err := r.arena.read(r.body, int(n))
	if err != nil {
		return nil, fmt.Errorf("stream truncated mid-chunk: %w", err)
	}
	return buf, nil
}

// all drains the stream to its terminator and returns every payload.
func (r *chunkReader) all() ([][]byte, error) {
	var chunks [][]byte
	for {
		chunk, err := r.next()
		if err == io.EOF {
			return chunks, nil
		}
		if err != nil {
			return nil, err
		}
		chunks = append(chunks, chunk)
	}
}
