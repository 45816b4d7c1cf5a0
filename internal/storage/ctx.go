package storage

import "context"

// The Backend read methods are deliberately context-free: local
// filesystem reads have nothing useful to cancel, and keeping the
// interface small keeps nine implementations honest. Network-backed
// backends are different — a remote read should stop retrying when the
// caller is gone, and a request trace on the caller's context should
// ride the wire (server.Client injects the X-VSS-Trace header from it).
// ContextReader / ContextExpectReader are the optional capabilities
// those backends implement, discovered the same way ExpectReader is: a
// direct type assertion, no Unwrap chasing, so a user wrapper's read
// path is never bypassed — wrappers opt in by implementing the
// interface themselves (Instrumented does).

// ContextReader is implemented by backends whose reads honor a caller
// context (cancellation, trace propagation). Remote, Instrumented, and
// Ring implement it.
type ContextReader interface {
	ReadGOPContext(ctx context.Context, video, physDir string, seq int) ([]byte, error)
}

// ContextExpectReader combines a caller context with the expected-size
// hint of ExpectReader.
type ContextExpectReader interface {
	ReadGOPExpectContext(ctx context.Context, video, physDir string, seq int, want int64) ([]byte, error)
}

// ReadGOPCtx reads one GOP through b, passing ctx when b supports it
// and falling back to a plain ReadGOP otherwise.
func ReadGOPCtx(ctx context.Context, b Backend, video, physDir string, seq int) ([]byte, error) {
	if cr, ok := b.(ContextReader); ok {
		return cr.ReadGOPContext(ctx, video, physDir, seq)
	}
	return b.ReadGOP(video, physDir, seq)
}

// ReadGOPExpectCtx reads one GOP with an expected-size hint, preferring
// the richest capability b offers: context+hint, then hint, then
// context, then the plain read.
func ReadGOPExpectCtx(ctx context.Context, b Backend, video, physDir string, seq int, want int64) ([]byte, error) {
	switch r := b.(type) {
	case ContextExpectReader:
		return r.ReadGOPExpectContext(ctx, video, physDir, seq, want)
	case ExpectReader:
		return r.ReadGOPExpect(video, physDir, seq, want)
	case ContextReader:
		return r.ReadGOPContext(ctx, video, physDir, seq)
	default:
		return b.ReadGOP(video, physDir, seq)
	}
}
