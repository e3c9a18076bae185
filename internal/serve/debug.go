package serve

import (
	"net/http"
	"strconv"
	"time"

	"indfd/internal/obs/tsdb"
)

// This file is the continuous-telemetry side of the debug surface: the
// shared header discipline every /debug JSON endpoint gets, plus the
// /debug/timeseries and /debug/alerts handlers over the tsdb store and
// watchdog (internal/obs/tsdb).

// debugJSON wraps a /debug handler with the headers every diagnostic
// JSON endpoint must carry: Cache-Control: no-store (these bodies are
// point-in-time process state — a cached copy is a lie within one
// sample tick) and an explicit charset on the Content-Type. Handlers
// behind it may still override (writeJSON re-sets the same
// Content-Type), but the headers exist even on paths that write the
// body directly.
func debugJSON(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Cache-Control", "no-store")
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		h(w, r)
	}
}

// jsonList returns items, or an empty slice when items is nil, so a
// /debug list with nothing in it encodes as [] rather than null.
func jsonList[T any](items []T) []T {
	if items == nil {
		return []T{}
	}
	return items
}

// queryLimit reads the ?limit=N that bounds /debug/traces,
// /debug/digests and /debug/alerts (absent = 0, no bound). A value that
// is not a non-negative integer gets the 400 here, and ok is false.
func (s *Server) queryLimit(w http.ResponseWriter, r *http.Request) (limit int, ok bool) {
	q := r.URL.Query().Get("limit")
	if q == "" {
		return 0, true
	}
	n, err := strconv.Atoi(q)
	if err != nil || n < 0 {
		s.writeJSON(w, http.StatusBadRequest, map[string]string{
			"request_id": RequestID(r.Context()),
			"error":      "limit must be a non-negative integer",
		})
		return 0, false
	}
	return n, true
}

// handleTimeseries is GET /debug/timeseries: the tsdb's retained
// history as JSON series. Query parameters:
//
//	since=5m        drop points older than this (Go duration back from
//	                now, or absolute unix seconds); reaching past the
//	                fine retention serves the coarse downsampled tier
//	step=30s        re-aggregate points into coarser buckets
//	match=http_lat  keep only series whose name contains the substring
//
// With history off (-ts-resolution 0) the reply is {"enabled": false}.
func (s *Server) handleTimeseries(w http.ResponseWriter, r *http.Request) {
	if s.ts == nil {
		s.writeJSON(w, http.StatusOK, map[string]any{"enabled": false})
		return
	}
	q := r.URL.Query()
	opt := tsdb.QueryOptions{Match: q.Get("match")}
	if raw := q.Get("since"); raw != "" {
		if d, err := time.ParseDuration(raw); err == nil {
			opt.Since = time.Now().Add(-d)
		} else if sec, err := strconv.ParseInt(raw, 10, 64); err == nil {
			opt.Since = time.Unix(sec, 0)
		} else {
			s.writeJSON(w, http.StatusBadRequest, map[string]string{
				"request_id": RequestID(r.Context()),
				"error":      "since must be a duration (5m) or unix seconds",
			})
			return
		}
	}
	if raw := q.Get("step"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d <= 0 {
			s.writeJSON(w, http.StatusBadRequest, map[string]string{
				"request_id": RequestID(r.Context()),
				"error":      "step must be a positive duration",
			})
			return
		}
		opt.Step = d
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"enabled":       true,
		"resolution_ms": s.ts.Resolution().Milliseconds(),
		"retention_ms":  s.ts.Retention().Milliseconds(),
		"series_count":  s.ts.SeriesCount(),
		"series":        jsonList(s.ts.Query(opt)),
	})
}

// handleAlerts is GET /debug/alerts: the watchdog's live state — the
// rule set, currently violating rules (firing, then pending), and the
// bounded fire/resolve event log, newest first (?limit=N bounds it).
// With no watchdog (no -alert-rules, or history off) the reply is
// {"enabled": false}.
func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	if s.wd == nil {
		s.writeJSON(w, http.StatusOK, map[string]any{"enabled": false})
		return
	}
	limit, ok := s.queryLimit(w, r)
	if !ok {
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"enabled": true,
		"rules":   s.wd.Rules(),
		"active":  jsonList(s.wd.Active()),
		"events":  jsonList(s.wd.Events(limit)),
	})
}
