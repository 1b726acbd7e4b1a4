package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
)

// Distributed trace context: since the fleet tier a request's life spans
// processes (router → worker → pool worker → batch → kernels), so a span's
// identity must survive the hop. The context is deliberately tiny — a
// Dapper-style (trace ID, span ID) pair carried in one HTTP header and in
// context.Context — and every span recorded on the request path is stamped
// with the trace ID as an Arg, so per-process ring buffers can be filtered
// and stitched into one cross-process trace afterwards (StitchChromeTraces).

// TraceHeader is the HTTP header carrying a TraceContext across process
// boundaries: "<32 hex trace id>-<16 hex span id>". The first edge (router
// or a directly-hit worker) mints the context when the header is absent, and
// every response is stamped with the same header so callers can fetch the
// stitched trace later (GET /tracez?id=<trace id>).
const TraceHeader = "X-NP-Trace-Context"

// TraceContext identifies one request fleet-wide: TraceID names the whole
// request tree (16 random bytes, lowercase hex), SpanID the edge that minted
// or forwarded it (8 random bytes, lowercase hex). The zero value means "no
// trace" and is what TraceFrom returns for un-traced contexts.
type TraceContext struct {
	TraceID string
	SpanID  string
}

// Valid reports whether the context carries a well-formed trace ID.
func (tc TraceContext) Valid() bool {
	return isHex(tc.TraceID, 32) && isHex(tc.SpanID, 16)
}

// String renders the context in TraceHeader wire format.
func (tc TraceContext) String() string {
	if !tc.Valid() {
		return ""
	}
	return tc.TraceID + "-" + tc.SpanID
}

// entropy decouples ID minting from crypto/rand syscall cost: one seed read
// at first use, then a counter mixed with splitmix64. IDs need uniqueness,
// not unpredictability.
var entropySeed atomic.Uint64

func nextRand() uint64 {
	for {
		seed := entropySeed.Load()
		if seed != 0 {
			// splitmix64 over a monotonically increasing counter: distinct
			// inputs give distinct, well-mixed outputs.
			z := entropySeed.Add(0x9e3779b97f4a7c15)
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			return z ^ (z >> 31)
		}
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			// Fall back to a fixed nonzero seed; uniqueness within the
			// process still holds via the counter.
			b = [8]byte{1, 2, 3, 4, 5, 6, 7, 8}
		}
		v := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
		if v == 0 {
			v = 0x9e3779b97f4a7c15
		}
		entropySeed.CompareAndSwap(0, v)
	}
}

// MintTrace creates a fresh trace context — call at the first edge a request
// crosses (the router, or a worker hit directly).
func MintTrace() TraceContext {
	var tid [16]byte
	hi, lo := nextRand(), nextRand()
	for i := 0; i < 8; i++ {
		tid[i] = byte(hi >> (8 * i))
		tid[8+i] = byte(lo >> (8 * i))
	}
	var sid [8]byte
	s := nextRand()
	for i := 0; i < 8; i++ {
		sid[i] = byte(s >> (8 * i))
	}
	return TraceContext{TraceID: hex.EncodeToString(tid[:]), SpanID: hex.EncodeToString(sid[:])}
}

// Child keeps the trace ID and mints a new span ID — what a hop stamps on
// the header it forwards downstream, so each edge is distinguishable.
func (tc TraceContext) Child() TraceContext {
	var sid [8]byte
	s := nextRand()
	for i := 0; i < 8; i++ {
		sid[i] = byte(s >> (8 * i))
	}
	return TraceContext{TraceID: tc.TraceID, SpanID: hex.EncodeToString(sid[:])}
}

// ParseTraceContext decodes the TraceHeader wire format. ok is false for
// absent or malformed values (the caller should mint a fresh context).
func ParseTraceContext(s string) (TraceContext, bool) {
	i := strings.IndexByte(s, '-')
	if i < 0 {
		return TraceContext{}, false
	}
	tc := TraceContext{TraceID: s[:i], SpanID: s[i+1:]}
	if !tc.Valid() {
		return TraceContext{}, false
	}
	return tc, true
}

// AdoptTrace is what every HTTP edge does with the trace header: continue
// the caller's trace under a span ID of its own (a router hop forwarded its
// header), or mint a fresh trace when this edge is the first. The response is
// stamped with the result either way — success or error — so the caller can
// fetch GET /tracez?id=<trace> later.
func AdoptTrace(w http.ResponseWriter, r *http.Request) TraceContext {
	tc, ok := ParseTraceContext(r.Header.Get(TraceHeader))
	if ok {
		tc = tc.Child()
	} else {
		tc = MintTrace()
	}
	w.Header().Set(TraceHeader, tc.String())
	return tc
}

func isHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

type traceCtxKey struct{}

// WithTrace attaches a trace context to ctx; request-scoped code (serve's
// Submit, the batch workers) recovers it with TraceFrom.
func WithTrace(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceFrom recovers the request's trace context (zero value, false when the
// context was never traced).
func TraceFrom(ctx context.Context) (TraceContext, bool) {
	tc, ok := ctx.Value(traceCtxKey{}).(TraceContext)
	return tc, ok && tc.Valid()
}

// TraceArg is the span Arg key carrying a trace ID; FilterByTraceID selects
// on it when /tracez?id= narrows an export to one request.
const TraceArg = "trace"

// FilterByTraceID keeps the spans stamped with the given trace ID (an Arg
// with key TraceArg and exactly this value). A span may carry several trace
// args — batch-level spans are stamped once per coalesced request — and
// matches if any of them equals id.
func FilterByTraceID(spans []Span, id string) []Span {
	var out []Span
	for _, s := range spans {
		for _, a := range s.Args {
			if a.Key == TraceArg {
				if v, ok := a.Val.(string); ok && v == id {
					out = append(out, s)
					break
				}
			}
		}
	}
	return out
}

// ValidTraceID rejects malformed ?id= filter values for HTTP handlers.
func ValidTraceID(id string) error {
	if !isHex(id, 32) {
		return fmt.Errorf("obs: trace id %q is not 32 lowercase hex chars", id)
	}
	return nil
}
