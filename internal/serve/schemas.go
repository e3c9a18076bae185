// The schema registry endpoints: named, versioned (schema, Σ) sets
// whose compilation cost — parse, validation, canonicalization,
// per-component indexes — is paid once, through the same memo as inline
// requests (compile.go), and amortized over every /v1/implies and
// /v1/batch request that references the name.
//
//	PUT    /v1/schemas/{name}          register or replace (version++)
//	GET    /v1/schemas/{name}          current version's schema and Σ
//	DELETE /v1/schemas/{name}          remove (versions never reused)
//	GET    /v1/schemas                 list
//	POST   /v1/schemas/{name}/algebra  union/intersect/minimal-cover
//
// A PUT or DELETE also sweeps the answer cache, evicting only the
// answers an edit could concern: the registry reports which members
// changed (the symmetric difference of the old and new canonical Σ),
// and the cache drops exactly the entries tagged with one of them —
// registering a dependency over unrelated relations evicts nothing.
// Inline answers carry no tags and never go. Tags are bare member keys,
// so two registered schemas that share a member evict each other's
// answers on an edit to it: coarser than needed, never stale.
package serve

import (
	"encoding/json"
	"net/http"

	"indfd/internal/core"
	"indfd/internal/deps"
	"indfd/internal/registry"
)

// SchemaPutRequest is the PUT /v1/schemas/{name} body, the schema and
// sigma fields of an ImpliesRequest (goal-less).
type SchemaPutRequest struct {
	Schema []string `json:"schema"`
	Sigma  []string `json:"sigma"`
}

// SchemaResponse describes one registered schema version.
type SchemaResponse struct {
	RequestID string   `json:"request_id"`
	Name      string   `json:"name"`
	Version   int64    `json:"version,omitempty"`
	Relations []string `json:"relations,omitempty"`
	// Sigma is the canonical dependency set (deduplicated, in insertion
	// order), rendered in the .dep text forms.
	Sigma []string `json:"sigma,omitempty"`
	// Invalidated is how many cached answers the registration evicted:
	// the registered answers tagged with a changed member (PUT and
	// DELETE only).
	Invalidated int    `json:"invalidated"`
	Deleted     bool   `json:"deleted,omitempty"`
	Error       string `json:"error,omitempty"`
}

// SchemaListResponse is the GET /v1/schemas reply.
type SchemaListResponse struct {
	RequestID string           `json:"request_id"`
	Schemas   []SchemaListItem `json:"schemas"`
}

// SchemaListItem summarizes one registered schema.
type SchemaListItem struct {
	Name      string `json:"name"`
	Version   int64  `json:"version"`
	Relations int    `json:"relations"`
	Sigma     int    `json:"sigma"`
}

// AlgebraRequest is the POST /v1/schemas/{name}/algebra body. Op is
// "union", "intersect" (With names the second operand) or
// "minimal-cover" (unary: the FD fragment is replaced by its minimal
// cover, INDs/RDs pass through). RegisterAs, when set, registers the
// result under that name (over the operand's schema) and reports its
// new version.
type AlgebraRequest struct {
	Op         string `json:"op"`
	With       string `json:"with,omitempty"`
	RegisterAs string `json:"register_as,omitempty"`
}

// AlgebraResponse is the algebra reply: the resulting dependency set in
// canonical order, plus registration details when register_as was set.
type AlgebraResponse struct {
	RequestID string   `json:"request_id"`
	Op        string   `json:"op"`
	Sigma     []string `json:"sigma"`
	Name      string   `json:"name,omitempty"`
	Version   int64    `json:"version,omitempty"`
	Error     string   `json:"error,omitempty"`
}

func (s *Server) handleSchemaPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	resp := SchemaResponse{RequestID: RequestID(r.Context()), Name: name}
	// The fields stay raw JSON for the compiled-system memo (see
	// impliesWire); SchemaPutRequest documents their decoded shape.
	var req struct {
		Schema json.RawMessage `json:"schema"`
		Sigma  json.RawMessage `json:"sigma"`
	}
	if !s.decodeBody(w, r, &req) {
		return
	}
	sys, key, err := s.memo.compile(req.Schema, req.Sigma)
	var e *registry.Entry
	var changed []string
	if err == nil {
		e, changed, err = s.schemas.Register(name, sys)
	}
	if err != nil {
		resp.Error = err.Error()
		s.writeJSON(w, http.StatusBadRequest, resp)
		return
	}
	s.memo.put(key, sys)
	// Only answers whose footprint touched a changed member go;
	// everything else stays warm.
	resp.Invalidated = s.cache.InvalidateMembers(changed...)
	fillSchema(&resp, e)
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSchemaGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	resp := SchemaResponse{RequestID: RequestID(r.Context()), Name: name}
	e, ok := s.schemas.Get(name)
	if !ok {
		resp.Error = "schema " + name + " is not registered"
		s.writeJSON(w, http.StatusNotFound, resp)
		return
	}
	fillSchema(&resp, e)
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSchemaDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	resp := SchemaResponse{RequestID: RequestID(r.Context()), Name: name}
	e, ok := s.schemas.Delete(name)
	if !ok {
		resp.Error = "schema " + name + " is not registered"
		s.writeJSON(w, http.StatusNotFound, resp)
		return
	}
	// Every member of the deleted Σ is gone; its dependent answers go
	// with it (answers over other schemas sharing no member stay).
	keys := make([]string, 0, len(e.Members))
	for k := range e.Members {
		keys = append(keys, k)
	}
	resp.Invalidated = s.cache.InvalidateMembers(keys...)
	resp.Deleted = true
	resp.Version = e.Version
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSchemaList(w http.ResponseWriter, r *http.Request) {
	resp := SchemaListResponse{RequestID: RequestID(r.Context()), Schemas: []SchemaListItem{}}
	for _, e := range s.schemas.List() {
		resp.Schemas = append(resp.Schemas, SchemaListItem{
			Name: e.Name, Version: e.Version,
			Relations: len(e.DB.Names()), Sigma: len(e.Sigma),
		})
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSchemaAlgebra(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	resp := AlgebraResponse{RequestID: RequestID(r.Context())}
	var req AlgebraRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	resp.Op = req.Op
	bad := func(status int, msg string) {
		resp.Error = msg
		s.writeJSON(w, status, resp)
	}
	a, ok := s.schemas.Get(name)
	if !ok {
		bad(http.StatusNotFound, "schema "+name+" is not registered")
		return
	}
	var result []deps.Dependency
	var err error
	switch req.Op {
	case "union", "intersect":
		if req.With == "" {
			bad(http.StatusBadRequest, req.Op+" needs a second operand in \"with\"")
			return
		}
		b, ok := s.schemas.Get(req.With)
		if !ok {
			bad(http.StatusNotFound, "schema "+req.With+" is not registered")
			return
		}
		if req.Op == "union" {
			result, err = registry.Union(a, b)
		} else {
			result, err = registry.Intersect(a, b)
		}
		if err != nil {
			bad(http.StatusBadRequest, err.Error())
			return
		}
	case "minimal-cover":
		result = registry.MinimalCover(a)
	default:
		bad(http.StatusBadRequest, "unknown op "+req.Op+" (want union, intersect or minimal-cover)")
		return
	}
	resp.Sigma = make([]string, 0, len(result))
	for _, d := range result {
		resp.Sigma = append(resp.Sigma, d.String())
	}
	if req.RegisterAs != "" {
		sys := core.NewSystem(a.DB)
		var e *registry.Entry
		var changed []string
		err := sys.Add(result...)
		if err == nil {
			e, changed, err = s.schemas.Register(req.RegisterAs, sys)
		}
		if err != nil {
			bad(http.StatusBadRequest, err.Error())
			return
		}
		s.cache.InvalidateMembers(changed...)
		resp.Name, resp.Version = e.Name, e.Version
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func fillSchema(resp *SchemaResponse, e *registry.Entry) {
	resp.Version = e.Version
	resp.Relations = resp.Relations[:0]
	for _, n := range e.DB.Names() {
		sch, _ := e.DB.Scheme(n)
		resp.Relations = append(resp.Relations, sch.String())
	}
	resp.Sigma = make([]string, 0, len(e.Sigma))
	for _, d := range e.Sigma {
		resp.Sigma = append(resp.Sigma, d.String())
	}
}
