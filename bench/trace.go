package main

// The traced run replays a workload's requests in-process, one at a
// time, twice each: once through the real handler (serve.New on a
// ResponseRecorder) and once as a replay that calls each layer's public
// functions in the order the handler calls them, with a span around
// every call. The replay copies serve's call order from the outside, so
// it drifts if serve changes; trace.coverage (replayed time over handler
// time) shows such drift.

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"indfd/internal/chase"
	"indfd/internal/core"
	"indfd/internal/deps"
	"indfd/internal/obs"
	"indfd/internal/parser"
	"indfd/internal/registry"
	"indfd/internal/schema"
	"indfd/internal/serve"
)

// depserve's defaults, which the traced run's handler and replay share.
const (
	spanCap    = 64
	cacheSize  = 1024
	digestSize = 256
	traceBuf   = 128
)

// keepSpans bounds the spans written to the trace file; per-layer
// metrics use every traced operation.
const keepSpans = 100000

// span is one timed call. Spans of one operation share op_id; parent is
// the span_id of the enclosing span, -1 for a root.
type span struct {
	Op     int    `json:"op_id"`
	ID     int    `json:"span_id"`
	Parent int    `json:"parent"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start"` // ns since the traced run began
	End    int64  `json:"end"`
}

// selfTime is span i's duration minus the part of it its children
// cover; overlapping children count once.
func selfTime(spans []span, i int) int64 {
	s := spans[i]
	var iv [][2]int64
	for _, c := range spans {
		if c.Op == s.Op && c.Parent == s.ID {
			if lo, hi := max(c.Start, s.Start), min(c.End, s.End); lo < hi {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var covered, reach int64
	for _, x := range iv {
		lo := max(x[0], reach)
		if x[1] > lo {
			covered += x[1] - lo
		}
		reach = max(reach, x[1])
	}
	return s.End - s.Start - covered
}

// tracer records spans. A nil *tracer records nothing, which is how the
// warmup replays untraced.
type tracer struct {
	base    time.Time
	op      int
	nextID  int
	root    int    // index in cur of the open root span
	cur     []span // the current operation's spans
	kept    []span
	samples map[string][]float64 // per layer, span durations in ns
	self    []float64            // per operation, handler minus replayed layers, ns
	covered float64              // replayed layer time, ns
	handled float64              // handler time, ns
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), samples: map[string][]float64{}}
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.base))
}

// begin opens the next operation's replay root; start and end time its
// children.
func (t *tracer) begin() {
	if t == nil {
		return
	}
	t.op++
	t.cur = t.cur[:0]
	t.root = len(t.cur)
	t.cur = append(t.cur, span{Op: t.op, ID: t.nextID, Parent: -1, Layer: "op", Start: t.now()})
	t.nextID++
}

func (t *tracer) start(layer string) int {
	if t == nil {
		return -1
	}
	t.cur = append(t.cur, span{Op: t.op, ID: t.nextID, Parent: t.cur[t.root].ID, Layer: layer, Start: t.now()})
	t.nextID++
	return len(t.cur) - 1
}

func (t *tracer) end(i int) {
	if t != nil {
		t.cur[i].End = t.now()
	}
}

func (t *tracer) rename(i int, layer string) {
	if t != nil {
		t.cur[i].Layer = layer
	}
}

// finish closes the replay root, records the handler's span for the
// same operation, and folds the operation into the samples.
func (t *tracer) finish(replayEnd, handlerStart, handlerEnd int64) {
	if t == nil {
		return
	}
	t.cur[t.root].End = replayEnd
	t.cur = append(t.cur, span{Op: t.op, ID: t.nextID, Parent: -1, Layer: "serve.handler", Start: handlerStart, End: handlerEnd})
	t.nextID++
	root := t.cur[t.root]
	covered := float64(root.End - root.Start - selfTime(t.cur, t.root))
	handler := float64(handlerEnd - handlerStart)
	t.self = append(t.self, handler-covered)
	t.covered += covered
	t.handled += handler
	for i, s := range t.cur {
		if i != t.root {
			t.samples[s.Layer] = append(t.samples[s.Layer], float64(s.End-s.Start))
		}
	}
	if len(t.kept)+len(t.cur) <= keepSpans {
		t.kept = append(t.kept, t.cur...)
	}
}

// spanOverhead is the cost of recording one span, in ns.
func spanOverhead() float64 {
	const n = 20000
	t := newTracer()
	t.begin()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.start("x"))
		if len(t.cur) > 1024 {
			t.cur = t.cur[:1]
		}
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

// replay holds the state a depserve process holds — answer cache,
// digest store, flight recorder, engine pool, schema registry — on its
// own obs registry, whose engine counters give the per-op counts.
type replay struct {
	reg     *obs.Registry
	cache   *core.AnswerCache
	dig     *obs.DigestStore
	rec     *obs.Recorder
	pool    *chase.EnginePool
	schemas *registry.Registry
	buf     bytes.Buffer
	id      int
	// edits counts schema PUTs, changed the members they changed and
	// invalidated the cached answers they evicted.
	edits, changed, invalidated int
}

func newReplay() *replay {
	reg := obs.New()
	reg.SetSpanCap(spanCap)
	return &replay{
		reg:     reg,
		cache:   core.NewAnswerCache(cacheSize, 0, reg),
		dig:     obs.NewDigestStore(digestSize, reg),
		rec:     obs.NewRecorder(traceBuf),
		pool:    chase.NewEnginePool(reg),
		schemas: registry.New(reg),
	}
}

// do replays one request and reports whether its answers match the
// oracle.
func (rp *replay) do(o *op, tr *tracer) bool {
	tr.begin()
	rp.id++
	rid := "replay-" + strconv.Itoa(rp.id)
	switch {
	case o.method == http.MethodPut:
		return rp.put(o, tr, rid)
	case o.path == "/v1/batch":
		return rp.batch(o, tr, rid)
	default:
		return rp.implies(o, tr, rid)
	}
}

func decodeStrict(body []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}

func (rp *replay) encode(tr *tracer, v any) {
	sp := tr.start("serve.encode")
	rp.buf.Reset()
	enc := json.NewEncoder(&rp.buf)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // the response types always encode
	tr.end(sp)
}

func (rp *replay) record(tr *tracer, r *obs.RequestRecord) {
	sp := tr.start("obs.recorder_add")
	rp.rec.Add(r)
	tr.end(sp)
}

func (rp *replay) implies(o *op, tr *tracer, rid string) bool {
	var req serve.ImpliesRequest
	sp := tr.start("serve.decode")
	err := decodeStrict(o.body, &req)
	tr.end(sp)
	if err != nil {
		return false
	}
	p, err := rp.prepare(tr, req.SchemaName, req.Schema, req.Sigma, []string{req.Goal})
	if err != nil {
		return false
	}
	resp, status, cache := rp.solve(tr, p, p.goals[0], req.Budget, rid)
	rp.encode(tr, resp)
	rp.record(tr, &obs.RequestRecord{TraceID: rid, Route: "/v1/implies", Status: status,
		Goal: resp.Goal, Mode: resp.Mode, Verdict: resp.Verdict, Engine: resp.Engine, Cache: cache})
	return status == http.StatusOK && verdictOf(resp.Verdict)&o.want[0] != 0
}

func (rp *replay) batch(o *op, tr *tracer, rid string) bool {
	var req serve.BatchRequest
	sp := tr.start("serve.decode")
	err := decodeStrict(o.body, &req)
	tr.end(sp)
	if err != nil {
		return false
	}
	p, err := rp.prepare(tr, req.SchemaName, req.Schema, req.Sigma, req.Goals)
	if err != nil {
		return false
	}
	resp := serve.BatchResponse{RequestID: rid, Schema: p.name, Version: p.version, Goals: len(p.goals)}
	ok := len(p.goals) == len(o.want)
	for i, g := range p.goals {
		ir, status, cache := rp.solve(tr, p, g, req.Budget, rid)
		resp.Answers = append(resp.Answers, serve.BatchGoalAnswer{ImpliesResponse: ir, Cache: cache, Status: status})
		ok = ok && status == http.StatusOK && verdictOf(ir.Verdict)&o.want[i] != 0
	}
	rp.encode(tr, resp)
	rp.record(tr, &obs.RequestRecord{TraceID: rid, Route: "/v1/batch", Status: http.StatusOK, Mode: "batch"})
	return ok
}

func (rp *replay) put(o *op, tr *tracer, rid string) bool {
	var req serve.SchemaPutRequest
	sp := tr.start("serve.decode")
	err := decodeStrict(o.body, &req)
	tr.end(sp)
	if err != nil {
		return false
	}
	name := strings.TrimPrefix(o.path, "/v1/schemas/")
	sp = tr.start("registry.put")
	e, changed, err := rp.schemas.Put(name, depDocument(req.Schema, req.Sigma, nil))
	tr.end(sp)
	if err != nil {
		return false
	}
	sp = tr.start("core.invalidate")
	n := rp.cache.InvalidateMembers(changed...)
	tr.end(sp)
	rp.edits++
	rp.changed += len(changed)
	rp.invalidated += n
	resp := serve.SchemaResponse{RequestID: rid, Name: name, Version: e.Version, Invalidated: n,
		Relations: schemeLines(e.DB), Sigma: depLines(e.Sigma)}
	rp.encode(tr, resp)
	rp.record(tr, &obs.RequestRecord{TraceID: rid, Route: "/v1/schemas/{name}", Status: http.StatusOK})
	return true
}

// prepared mirrors serve's per-request setup: the system, its pool, the
// parsed goals and, for a registered schema, its name and version.
type prepared struct {
	sys     *core.System
	pool    *chase.EnginePool
	goals   []deps.Dependency
	name    string
	version int64
}

func (rp *replay) prepare(tr *tracer, name string, schemaLines, sigma, goals []string) (*prepared, error) {
	p := &prepared{pool: rp.pool}
	var doc string
	if name != "" {
		sp := tr.start("registry.get")
		e, ok := rp.schemas.Get(name)
		tr.end(sp)
		if !ok {
			return nil, fmt.Errorf("schema %q is not registered", name)
		}
		p.sys, p.pool, p.name, p.version = e.Sys, e.Pool, e.Name, e.Version
		doc = goalDocument(e.DB, goals)
	} else {
		doc = depDocument(schemaLines, sigma, goals)
	}
	sp := tr.start("parser.parse")
	file, err := parser.ParseString(doc)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if len(file.Queries) != len(goals) {
		return nil, errors.New("every goal must be a single FD, IND or RD")
	}
	if p.sys == nil {
		sp := tr.start("core.compile")
		p.sys = core.NewSystem(file.DB)
		err := p.sys.Add(file.Sigma...)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	for _, q := range file.Queries {
		p.goals = append(p.goals, q.Goal)
	}
	return p, nil
}

// solve answers one goal the way serve's solveGoal does: fingerprint,
// cache lookup, engine on a miss, tagged cache insert for complete
// answers, digest observation.
func (rp *replay) solve(tr *tracer, p *prepared, goal deps.Dependency, budget int, rid string) (serve.ImpliesResponse, int, string) {
	resp := serve.ImpliesResponse{RequestID: rid, Goal: goal.String(), Mode: "unrestricted"}
	opt := core.Options{ChaseMaxTuples: budget, Obs: rp.reg, ChasePool: p.pool}
	sp := tr.start("core.fingerprint")
	fp := p.sys.QueryKey(goal, resp.Mode, append(core.FingerprintOptions(opt), "explain=false")...)
	tr.end(sp)
	opt.Footprint = true
	sp = tr.start("core.cache_get")
	hit, ok := rp.cache.Get(fp)
	tr.end(sp)
	if ok {
		fillAnswer(&resp, hit.Answer)
		rp.observe(tr, obs.DigestObservation{Fingerprint: fp, Query: resp.Goal, CacheHit: true})
		return resp, http.StatusOK, "hit"
	}
	sp = tr.start("engine")
	start := time.Now()
	a, err := p.sys.Implies(goal, opt)
	resp.ElapsedUS = time.Since(start).Microseconds()
	tr.end(sp)
	tr.rename(sp, "engine."+a.Engine)
	fillAnswer(&resp, a)
	if err != nil {
		resp.Error = err.Error()
		rp.observe(tr, obs.DigestObservation{Fingerprint: fp, Query: resp.Goal, DurationNS: resp.ElapsedUS * 1e3, Err: true})
		return resp, http.StatusServiceUnavailable, "miss"
	}
	if a.Verdict != core.Unknown {
		sp = tr.start("core.cache_put")
		rp.cache.PutTagged(fp, core.CachedAnswer{Answer: a}, p.sys.AnswerTags(&a, goal))
		tr.end(sp)
	}
	rp.observe(tr, obs.DigestObservation{Fingerprint: fp, Query: resp.Goal, DurationNS: resp.ElapsedUS * 1e3})
	return resp, http.StatusOK, "miss"
}

func (rp *replay) observe(tr *tracer, d obs.DigestObservation) {
	sp := tr.start("obs.digest_observe")
	rp.dig.Observe(d)
	tr.end(sp)
}

// fillAnswer, depDocument and goalDocument copy serve's unexported
// helpers of the same names.

func fillAnswer(resp *serve.ImpliesResponse, a core.Answer) {
	resp.Verdict = a.Verdict.String()
	resp.Engine = a.Engine
	resp.Proof = a.Proof
	if a.Counterexample != nil {
		resp.Counterexample = a.Counterexample.String()
	}
	resp.ChaseRounds = a.ChaseRounds
	resp.ChaseTuples = a.ChaseTuples
	resp.Derivation = a.Derivation
	if st := a.INDStats; st != nil {
		resp.IND = &serve.INDStats{Expanded: st.Expanded, Generated: st.Generated, Visited: st.Visited,
			FrontierPeak: st.FrontierPeak, ChainLength: st.ChainLength}
	}
}

func depDocument(schemaLines, sigma, goals []string) string {
	var b strings.Builder
	for _, s := range schemaLines {
		b.WriteString("schema " + s + "\n")
	}
	for _, d := range sigma {
		b.WriteString(d + "\n")
	}
	writeGoals(&b, goals)
	return b.String()
}

func goalDocument(db *schema.Database, goals []string) string {
	var b strings.Builder
	for _, line := range schemeLines(db) {
		b.WriteString("schema " + line + "\n")
	}
	writeGoals(&b, goals)
	return b.String()
}

func writeGoals(b *strings.Builder, goals []string) {
	for _, g := range goals {
		b.WriteString("? " + g + "\n")
	}
}

// traceCounters are the obs counters the per-op layer metrics divide.
var traceCounters = []string{
	"cache.hits", "cache.misses", "cache.evictions",
	"fd.closure_passes", "ind.expanded", "chase.rounds", "chase.delta_tuples",
	"pool.hits", "pool.misses",
}

func counterValues(reg *obs.Registry) map[string]float64 {
	out := make(map[string]float64, len(traceCounters))
	for _, name := range traceCounters {
		out[name] = float64(reg.Counter(name).Value())
	}
	return out
}

// traceRun runs the workload's setup, a warmup, and then traced
// operations for dur, and writes the kept spans to tracePath.
func traceRun(w *workload, warmup, dur time.Duration, tracePath string) (*outcome, error) {
	reg := obs.New()
	reg.SetSpanCap(spanCap)
	// BatchFanout 1: the replay answers a batch's goals one after another,
	// so the handler it is compared with must too.
	srv := serve.New(serve.Config{
		Reg: reg, Logger: slog.New(slog.NewJSONHandler(io.Discard, nil)),
		CacheSize: cacheSize, TraceBuffer: traceBuf, DigestSize: digestSize, BatchFanout: 1,
	})
	srv.SetReady(true)
	h := srv.Handler()
	rp := newReplay()
	res := &outcome{}
	overhead := spanOverhead()

	tr := newTracer()
	var respBytes []float64
	var n int
	// step sends o through the handler and the replay, alternating which
	// runs first so neither always finds the CPU caches warm.
	step := func(o *op, tr *tracer) {
		n++
		req := httptest.NewRequest(o.method, o.path, bytes.NewReader(o.body))
		rr := httptest.NewRecorder()
		var hs, he, re int64
		handle := func() {
			hs = tr.now()
			h.ServeHTTP(rr, req)
			he = tr.now()
		}
		if n%2 == 0 {
			handle()
		}
		ok := rp.do(o, tr)
		re = tr.now()
		if n%2 != 0 {
			handle()
		}
		tr.finish(re, hs, he)
		if tr != nil {
			respBytes = append(respBytes, float64(rr.Body.Len()))
		}
		res.attempted += int64(o.count())
		if !ok || !checkReply(o, rr.Code, rr.Body.Bytes()) {
			res.failed += int64(o.count())
		}
	}
	for _, o := range w.preload {
		step(o, tr)
	}
	var warm *tracer // records nothing
	i := 0
	for start := time.Now(); time.Since(start) < warmup; i++ {
		step(w.seq[i%len(w.seq)], warm)
	}
	before := counterValues(rp.reg)
	edits, changed, invalidated := rp.edits, rp.changed, rp.invalidated
	var ops int
	for start := time.Now(); time.Since(start) < dur || ops == 0; i++ {
		o := w.seq[i%len(w.seq)]
		step(o, tr)
		ops += o.count()
	}
	after := counterValues(rp.reg)
	delta := func(name string) float64 { return after[name] - before[name] }
	perOp := func(name string) float64 { return delta(name) / float64(ops) }
	ratio := func(num, other string) float64 {
		if d := delta(num) + delta(other); d > 0 {
			return delta(num) / d
		}
		return 0
	}
	perEdit := func(n int) float64 {
		if e := rp.edits - edits; e > 0 {
			return float64(n) / float64(e)
		}
		return 0
	}
	parseAllocs, systemAllocs, err := prepareAllocs(w)
	if err != nil {
		return nil, err
	}

	us := func(ns []float64) float64 { return percentile(ns, 50) / 1e3 }
	m := []metric{
		newMetric("serve.handler_us", "us", us(tr.samples["serve.handler"])),
		newMetric("serve.decode_us", "us", us(tr.samples["serve.decode"])),
		newMetric("serve.encode_us", "us", us(tr.samples["serve.encode"])),
		newMetric("serve.self_us", "us", us(tr.self)),
		newMetric("serve.resp_bytes", "bytes", percentile(respBytes, 50)),
		newMetric("parser.parse_us", "us", us(tr.samples["parser.parse"])),
		newMetric("parser.allocs_per_op", "allocs", parseAllocs),
		newMetric("core.system_us", "us", us(append(tr.samples["core.compile"], tr.samples["registry.get"]...))),
		newMetric("core.system_allocs_per_op", "allocs", systemAllocs),
		newMetric("core.fingerprint_us", "us", us(tr.samples["core.fingerprint"])),
		newMetric("core.cache_get_us", "us", us(tr.samples["core.cache_get"])),
		newMetric("core.cache_put_us", "us", us(tr.samples["core.cache_put"])),
		newMetric("core.cache_hit_ratio", "ratio", ratio("cache.hits", "cache.misses")),
		newMetric("core.cache_evictions_per_op", "count", perOp("cache.evictions")),
		newMetric("core.invalidated_per_edit", "count", perEdit(rp.invalidated-invalidated)),
		newMetric("registry.changed_members_per_edit", "count", perEdit(rp.changed-changed)),
		newMetric("engine.us", "us", us(engineSamples(tr.samples))),
		newMetric("fd.closure_passes_per_op", "count", perOp("fd.closure_passes")),
		newMetric("ind.expanded_per_op", "count", perOp("ind.expanded")),
		newMetric("chase.rounds_per_op", "count", perOp("chase.rounds")),
		newMetric("chase.delta_tuples_per_op", "count", perOp("chase.delta_tuples")),
		newMetric("chase.pool_hit_ratio", "ratio", ratio("pool.hits", "pool.misses")),
		newMetric("obs.digest_observe_us", "us", us(tr.samples["obs.digest_observe"])),
		newMetric("obs.recorder_add_us", "us", us(tr.samples["obs.recorder_add"])),
		newMetric("trace.coverage", "ratio", tr.covered/tr.handled),
		newMetric("trace.span_overhead_ns", "ns", overhead),
	}
	// Layers only some workloads reach print too, 0 where no span ran;
	// BENCHMARK.json lists only metrics every workload measures.
	for _, layer := range []string{"core.compile", "registry.get", "registry.put", "core.invalidate",
		"engine.fd", "engine.ind", "engine.unary", "engine.chase"} {
		m = append(m, newMetric(layer+"_us", "us", us(tr.samples[layer])))
	}
	res.metrics = m
	return res, writeTrace(tracePath, w.name, tr)
}

func engineSamples(samples map[string][]float64) []float64 {
	var out []float64
	for layer, s := range samples {
		if strings.HasPrefix(layer, "engine.") {
			out = append(out, s...)
		}
	}
	return out
}

// prepareAllocs counts heap allocations per parse and per system
// lookup-or-compile over the workload's first distinct requests,
// outside the timed loop (reading the exact count stops the world).
func prepareAllocs(w *workload) (parse, system float64, err error) {
	rp := newReplay()
	for _, o := range w.preload {
		if !rp.do(o, nil) {
			return 0, 0, fmt.Errorf("preload %s %s failed", o.method, o.path)
		}
	}
	type doc struct {
		text string
		name string
		file *parser.File
	}
	var docs []doc
	seen := map[*op]bool{}
	for _, o := range w.seq {
		if len(docs) == 500 {
			break
		}
		if seen[o] || o.method == http.MethodPut {
			continue
		}
		seen[o] = true
		// The union of ImpliesRequest's and BatchRequest's fields.
		var req struct {
			Schema     []string `json:"schema"`
			Sigma      []string `json:"sigma"`
			SchemaName string   `json:"schema_name"`
			Goal       string   `json:"goal"`
			Goals      []string `json:"goals"`
		}
		if err := json.Unmarshal(o.body, &req); err != nil {
			return 0, 0, err
		}
		goals := req.Goals
		if req.Goal != "" {
			goals = []string{req.Goal}
		}
		d := doc{name: req.SchemaName}
		if d.name != "" {
			e, ok := rp.schemas.Get(d.name)
			if !ok {
				return 0, 0, fmt.Errorf("schema %q is not registered", d.name)
			}
			d.text = goalDocument(e.DB, goals)
		} else {
			d.text = depDocument(req.Schema, req.Sigma, goals)
		}
		if d.file, err = parser.ParseString(d.text); err != nil {
			return 0, 0, err
		}
		docs = append(docs, d)
	}
	var ms runtime.MemStats
	count := func(f func(d doc) error) (float64, error) {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		for _, d := range docs {
			if err := f(d); err != nil {
				return 0, err
			}
		}
		runtime.ReadMemStats(&ms)
		return float64(ms.Mallocs-before) / float64(len(docs)), nil
	}
	if parse, err = count(func(d doc) error { _, err := parser.ParseString(d.text); return err }); err != nil {
		return 0, 0, err
	}
	system, err = count(func(d doc) error {
		if d.name != "" {
			_, _ = rp.schemas.Get(d.name)
			return nil
		}
		return core.NewSystem(d.file.DB).Add(d.file.Sigma...)
	})
	return parse, system, err
}

func writeTrace(path, workload string, tr *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(map[string]any{
		"workload":   workload,
		"ops_traced": tr.op,
		"spans_kept": len(tr.kept),
		"spans":      tr.kept,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
