package serve

// Hand-written JSON for the replies of the query endpoints: the
// implies, explain and batch replies are appended into one pooled
// buffer with an fd proof rendered straight into it, exactly the bytes
// encoding/json would write (TestReplyBytesMatchEncodingJSON,
// TestReplyEveryField, FuzzAppendString); every request and every other
// reply goes through encoding/json.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// --- replies ------------------------------------------------------------

// replyBufs holds the buffers replies are appended into; one larger
// than maxPooledReply is left to the collector.
var replyBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

const maxPooledReply = 1 << 20

// writeImplies writes an implies or explain reply.
func (s *Server) writeImplies(w http.ResponseWriter, status int, r *ImpliesResponse) {
	if s.testReply != nil {
		s.testReply(*r)
	}
	buf := replyBufs.Get().(*[]byte)
	b, err := appendImplies((*buf)[:0], r)
	s.writeReply(w, status, buf, b, err)
}

// writeBatch writes a batch reply.
func (s *Server) writeBatch(w http.ResponseWriter, status int, r *BatchResponse) {
	if s.testReply != nil {
		s.testReply(*r)
	}
	buf := replyBufs.Get().(*[]byte)
	b, err := appendBatch((*buf)[:0], r)
	s.writeReply(w, status, buf, b, err)
}

// writeReply writes a reply appended into the pooled buffer buf, as
// writeJSON would have: a value that failed to encode leaves the body
// empty.
func (s *Server) writeReply(w http.ResponseWriter, status int, buf *[]byte, b []byte, err error) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	if err != nil {
		s.log.Error("response encoding failed", "err", err)
	} else {
		b = append(b, '\n')
		w.Write(b) //nolint:errcheck
	}
	if cap(b) <= maxPooledReply {
		*buf = b[:0]
		replyBufs.Put(buf)
	}
}

// appendString appends s as a JSON string.
func appendString(b []byte, s string) []byte {
	return append(appendEscaped(append(b, '"'), s), '"')
}

const hexDigits = "0123456789abcdef"

// appendEscaped appends s as the inside of a JSON string, escaped as
// encoding/json escapes it with HTML escaping off: '"', '\\' and
// control bytes, invalid UTF-8 as \ufffd, and U+2028 and U+2029.
func appendEscaped(b []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(b, s[start:]...)
}

// appendField appends `,"name":`, the name of a field after an
// object's first, which its caller writes after the brace.
func appendField(b []byte, name string) []byte {
	b = append(b, ',', '"')
	b = append(b, name...)
	return append(b, '"', ':')
}

func appendStringField(b []byte, name, v string) []byte {
	if v == "" {
		return b
	}
	return appendString(appendField(b, name), v)
}

func appendIntField(b []byte, name string, v int64) []byte {
	return strconv.AppendInt(appendField(b, name), v, 10)
}

func appendNonZeroField(b []byte, name string, v int64) []byte {
	if v == 0 {
		return b
	}
	return appendIntField(b, name, v)
}

// appendEncoded appends v as encoding/json encodes it without HTML
// escaping: the replies' rare nested documents (a chase derivation, a
// dependency profile, a metrics snapshot).
func appendEncoded(b []byte, v any) ([]byte, error) {
	w := bytes.NewBuffer(b)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return b, err
	}
	out := w.Bytes()
	return out[:len(out)-1], nil // Encode ends the value with a newline
}

func appendEncodedField(b []byte, name string, v any) ([]byte, error) {
	return appendEncoded(appendField(b, name), v)
}

// appendImpliesFields appends r's fields, in ImpliesResponse's order
// and under its omitempty rules, after the object's opening brace.
func appendImpliesFields(b []byte, r *ImpliesResponse) ([]byte, error) {
	var err error
	b = append(b, `"request_id":`...)
	b = appendString(b, r.RequestID)
	b = appendStringField(b, "goal", r.Goal)
	b = appendStringField(b, "mode", r.Mode)
	b = appendStringField(b, "verdict", r.Verdict)
	b = appendStringField(b, "engine", r.Engine)
	if !r.fdProof.IsZero() {
		b = r.fdProof.AppendJSON(appendField(b, "proof"), r.Goal, r.fdStart, appendEscaped)
	} else {
		b = appendStringField(b, "proof", r.Proof)
	}
	b = appendStringField(b, "explanation", r.Explanation)
	b = appendStringField(b, "counterexample", r.Counterexample)
	if r.Derivation != nil {
		if b, err = appendEncodedField(b, "derivation", r.Derivation); err != nil {
			return b, err
		}
	}
	b = appendNonZeroField(b, "chase_rounds", int64(r.ChaseRounds))
	b = appendNonZeroField(b, "chase_tuples", int64(r.ChaseTuples))
	if st := r.IND; st != nil {
		b = append(appendField(b, "ind"), `{"expanded":`...)
		b = strconv.AppendInt(b, int64(st.Expanded), 10)
		b = appendIntField(b, "generated", int64(st.Generated))
		b = appendIntField(b, "visited", int64(st.Visited))
		b = appendIntField(b, "frontier_peak", int64(st.FrontierPeak))
		b = append(appendNonZeroField(b, "chain_length", int64(st.ChainLength)), '}')
	}
	if r.DepProfile != nil {
		if b, err = appendEncodedField(b, "dep_profile", r.DepProfile); err != nil {
			return b, err
		}
	}
	b = appendIntField(b, "elapsed_us", r.ElapsedUS)
	b = appendNonZeroField(b, "deadline_ms", r.DeadlineMS)
	if r.Metrics != nil {
		if b, err = appendEncodedField(b, "metrics", r.Metrics); err != nil {
			return b, err
		}
	}
	return appendStringField(b, "error", r.Error), nil
}

// appendImplies appends r as encoding/json would encode it.
func appendImplies(b []byte, r *ImpliesResponse) ([]byte, error) {
	b, err := appendImpliesFields(append(b, '{'), r)
	return append(b, '}'), err
}

// appendBatch appends r as encoding/json would encode it; each answer
// is its ImpliesResponse's fields, then cache and status.
func appendBatch(b []byte, r *BatchResponse) ([]byte, error) {
	b = append(b, `{"request_id":`...)
	b = appendString(b, r.RequestID)
	b = appendStringField(b, "schema", r.Schema)
	b = appendNonZeroField(b, "version", r.Version)
	b = appendIntField(b, "goals", int64(r.Goals))
	if len(r.Answers) > 0 {
		b = append(appendField(b, "answers"), '[')
		for i := range r.Answers {
			a := &r.Answers[i]
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendImpliesFields(append(b, '{'), &a.ImpliesResponse); err != nil {
				return b, err
			}
			b = appendStringField(b, "cache", a.Cache)
			b = append(appendIntField(b, "status", int64(a.Status)), '}')
		}
		b = append(b, ']')
	}
	b = appendIntField(b, "elapsed_us", r.ElapsedUS)
	return append(appendStringField(b, "error", r.Error), '}'), nil
}
