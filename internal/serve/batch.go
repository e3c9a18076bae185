// POST /v1/batch: many goals, one setup. A batch request answers up to
// Config.MaxBatch goals against a single Σ — inline or registered by
// name — paying the request's fixed costs once: one JSON decode, one
// parse/canonicalize/validate pass (or one registry lookup of a
// pre-compiled entry), one deadline, one fingerprint pass per goal over
// the already-built system. The goals are then answered in order, on the
// request's goroutine; every goal runs through the same solveGoal path
// as a lone /v1/implies request, so per-goal answers are byte-identical
// to what N sequential requests would have returned (verdict, trace,
// counterexample), with per-goal cache and timing fields attached.
// Concurrency lives between requests: an FD goal costs microseconds,
// and a batch's time goes to decode, goal parse and encode, which a
// worker group per batch does not shorten (DESIGN §5.2).
package serve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"
)

// BatchRequest is the POST /v1/batch body: the schema fields of an
// ImpliesRequest (inline schema+sigma, or schema_name) with a list of
// goals instead of one, plus the same per-query knobs applied to every
// goal.
type BatchRequest struct {
	Schema     []string `json:"schema,omitempty"`
	Sigma      []string `json:"sigma,omitempty"`
	SchemaName string   `json:"schema_name,omitempty"`
	Goals      []string `json:"goals"`
	Finite     bool     `json:"finite,omitempty"`
	Budget     int      `json:"budget,omitempty"`
	Search     bool     `json:"search,omitempty"`
	TimeoutMS  int64    `json:"timeout_ms,omitempty"`
	Explain    bool     `json:"explain,omitempty"`
	Provenance bool     `json:"provenance,omitempty"`
}

// BatchGoalAnswer is one goal's answer: the exact ImpliesResponse a
// lone /v1/implies would have produced, plus the cache disposition the
// X-Cache header would have carried and the HTTP status the response
// would have had (200; 503 for a deadline-killed goal).
type BatchGoalAnswer struct {
	ImpliesResponse
	Cache  string `json:"cache,omitempty"`
	Status int    `json:"status"`
}

// BatchResponse is the POST /v1/batch reply. Answers are in the goals'
// order. The response status is 200 when the batch itself was valid;
// per-goal failures are reported per goal.
type BatchResponse struct {
	RequestID string `json:"request_id"`
	// Schema and Version echo the registry entry the batch ran against,
	// absent for inline schemas. The version is the one the answers were
	// computed from — a concurrent re-registration does not tear a
	// running batch, which keeps using its immutable entry.
	Schema    string            `json:"schema,omitempty"`
	Version   int64             `json:"version,omitempty"`
	Goals     int               `json:"goals"`
	Answers   []BatchGoalAnswer `json:"answers,omitempty"`
	ElapsedUS int64             `json:"elapsed_us"`
	Error     string            `json:"error,omitempty"`
}

// batchWire is how a BatchRequest is decoded: its schema and sigma
// fields stay raw JSON for the compiled-system memo (see impliesWire).
type batchWire struct {
	BatchRequest
	Schema json.RawMessage `json:"schema,omitempty"`
	Sigma  json.RawMessage `json:"sigma,omitempty"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchWire
	if !s.decodeBody(w, r, &req) {
		return
	}
	resp := BatchResponse{RequestID: RequestID(r.Context()), Goals: len(req.Goals)}
	bad := func(msg string) {
		resp.Error = msg
		s.writeBatch(w, http.StatusBadRequest, &resp)
	}
	if len(req.Goals) == 0 {
		bad("missing goals")
		return
	}
	if len(req.Goals) > s.cfg.MaxBatch {
		bad("too many goals: " + strconv.Itoa(len(req.Goals)) + " > max_batch " + strconv.Itoa(s.cfg.MaxBatch))
		return
	}
	start := time.Now()
	p, err := s.prepare(req.SchemaName, req.Schema, req.Sigma, "goals", req.Goals)
	if err != nil {
		bad(err.Error())
		return
	}
	resp.Schema, resp.Version = p.schemaName, p.version

	dl := s.newDeadline(r.Context(), req.TimeoutMS)
	defer dl.cancel()

	// Per-goal options are the batch's knobs verbatim; solveGoal treats
	// them exactly as a lone request's.
	goalReq := ImpliesRequest{
		Finite: req.Finite, Budget: req.Budget, Search: req.Search,
		Explain: req.Explain, Provenance: req.Provenance,
	}
	extras := s.fingerprintExtras(goalReq)
	resp.Answers = make([]BatchGoalAnswer, len(p.goals))
	for i := range p.goals {
		// The per-goal recorder is nil: the flight recorder keeps one
		// record per HTTP request; per-goal telemetry lands in the digest
		// store (inside solveGoal) instead.
		ir, status, cache := s.solveGoal(&dl, p, p.goal(i), goalReq, extras, resp.RequestID, nil)
		resp.Answers[i] = BatchGoalAnswer{ImpliesResponse: ir, Cache: cache, Status: status}
		if status != http.StatusOK {
			s.batch.get("batch.goal_errors").Inc()
		}
	}
	resp.ElapsedUS = time.Since(start).Microseconds()

	if rec := record(r.Context()); rec != nil {
		rec.Goal = "batch:" + strconv.Itoa(len(p.goals)) + " goals"
		rec.Mode = "batch"
	}
	s.batch.get("batch.requests").Inc()
	s.batch.get("batch.goals").Add(int64(len(p.goals)))
	s.writeBatch(w, http.StatusOK, &resp)
}
