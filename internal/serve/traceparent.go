package serve

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
	"strings"
)

// W3C Trace Context (https://www.w3.org/TR/trace-context/): the
// traceparent header carries "<version>-<trace-id>-<parent-id>-<flags>"
// with a 2-hex version, a 32-hex trace ID, a 16-hex parent span ID and
// 2-hex flags, all lowercase, IDs never all-zero. depserve is one hop
// inside somebody else's optimizer or data-quality pipeline, so it
// honors an incoming trace ID — the whole point of propagation is that
// the caller's backend sees this service's spans under the caller's
// trace — and advertises its own span ID back in the response
// traceparent. A missing or malformed header falls back to a freshly
// minted trace ID; either way every response carries a valid
// traceparent plus the legacy X-Trace-Id.

// traceContext is the per-request W3C identity the middleware resolves;
// it travels in the request's requestState.
type traceContext struct {
	traceID      string // 32-hex; incoming when valid, else minted
	spanID       string // 16-hex; this server's own span, always minted
	parentSpanID string // 16-hex; the caller's span ID, "" when none
}

// TraceID returns the request's W3C trace ID — the value of the
// response's X-Trace-Id header and traceparent trace-id field — or ""
// when the context did not pass through the middleware.
func TraceID(ctx context.Context) string {
	if st := stateOf(ctx); st != nil {
		return st.tc.traceID
	}
	return ""
}

// parseTraceparent validates an incoming traceparent header and
// extracts the trace ID and the caller's span ID. It accepts version
// 00 exactly and tolerates future versions (> 00, != ff) that keep the
// first four fields parseable, per the spec's forward-compatibility
// rule; anything else — wrong lengths, uppercase hex, all-zero IDs,
// version ff — is rejected and the caller falls back to a minted ID.
func parseTraceparent(h string) (traceID, parentSpanID string, ok bool) {
	// "ver-traceid-spanid-flags" = 2+1+32+1+16+1+2 = 55 bytes minimum;
	// future versions may append "-..." suffixes.
	if len(h) < 55 {
		return "", "", false
	}
	if h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return "", "", false
	}
	ver, trace, parent, flags := h[0:2], h[3:35], h[36:52], h[53:55]
	if !isLowerHex(ver) || ver == "ff" {
		return "", "", false
	}
	if ver == "00" && len(h) != 55 {
		return "", "", false
	}
	if len(h) > 55 && h[55] != '-' {
		return "", "", false
	}
	if !isLowerHex(trace) || allZero(trace) {
		return "", "", false
	}
	if !isLowerHex(parent) || allZero(parent) {
		return "", "", false
	}
	if !isLowerHex(flags) {
		return "", "", false
	}
	return trace, parent, true
}

// formatTraceparent renders the response header: version 00, the
// request's trace ID, this server's span ID, and the sampled flag: 01
// when the request is recorded (the middleware drafted a record for the
// flight recorder or the exporter), 00 when nothing keeps it — probes,
// and every route on a server with both recording and export off.
func formatTraceparent(traceID, spanID string, sampled bool) string {
	if sampled {
		return "00-" + traceID + "-" + spanID + "-01"
	}
	return "00-" + traceID + "-" + spanID + "-00"
}

// maxTracestateLen is the W3C tracestate size bound: the spec requires
// propagators to pass at least 512 bytes and permits trimming beyond
// that, provided entries are dropped whole (section 3.3.1.5).
const maxTracestateLen = 512

// truncateTracestate bounds an echoed tracestate header to
// maxTracestateLen bytes, cutting only at list-member boundaries — a
// partially transmitted member would corrupt the vendor key/value it
// belongs to. Headers within the bound pass through verbatim; an
// oversized single member (no comma to cut at) drops entirely.
func truncateTracestate(state string) string {
	if len(state) <= maxTracestateLen {
		return state
	}
	cut := strings.LastIndexByte(state[:maxTracestateLen+1], ',')
	if cut < 0 {
		return ""
	}
	return strings.TrimRight(state[:cut], " \t,")
}

// newTraceID mints a 32-hex W3C trace ID. math/rand/v2's global
// generator is runtime-seeded, so IDs differ across processes; the
// low-order OR guarantees the all-zero ID (invalid per spec) is
// unreachable.
func newTraceID() string {
	var id [16]byte
	binary.BigEndian.PutUint64(id[:8], rand.Uint64())
	binary.BigEndian.PutUint64(id[8:], rand.Uint64()|1)
	var text [32]byte
	hex.Encode(text[:], id[:])
	return string(text[:])
}

// newSpanID mints a 16-hex W3C span ID.
func newSpanID() string {
	var id [8]byte
	binary.BigEndian.PutUint64(id[:], rand.Uint64()|1)
	var text [16]byte
	hex.Encode(text[:], id[:])
	return string(text[:])
}

// isLowerHex reports whether s is entirely lowercase hex digits.
func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return len(s) > 0
}

// allZero reports whether s is all '0's.
func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}
