package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sync"

	"indfd/internal/benchws"
	"indfd/internal/core"
	"indfd/internal/deps"
	"indfd/internal/schema"
	"indfd/internal/serve"
)

// verdictSet is a set of acceptable verdicts for one goal. A goal of the
// schema_edits workload may be answered against any published version of
// its Σ, so its set can hold more than one verdict.
type verdictSet uint8

const (
	vYes verdictSet = 1 << iota
	vNo
	vUnknown
)

func verdictOf(v string) verdictSet {
	switch v {
	case "yes":
		return vYes
	case "no":
		return vNo
	case "unknown":
		return vUnknown
	}
	return 0
}

func verdictFrom(v core.Verdict) verdictSet { return verdictOf(v.String()) }

// op is one pregenerated HTTP request together with its oracle.
type op struct {
	method string
	path   string
	body   []byte
	req    []byte // the whole request as sent
	// want holds the acceptable verdicts of each answer in response
	// order: one for /v1/implies, one per goal for /v1/batch, none for a
	// schema PUT.
	want []verdictSet
}

func newOp(method, path string, body []byte, want []verdictSet) *op {
	return &op{method: method, path: path, body: body, req: rawRequest(method, path, body), want: want}
}

// count is the number of operations the request stands for: one per
// implies answer, batch goal or schema PUT.
func (o *op) count() int { return max(1, len(o.want)) }

// workload is a traffic mix: the setup requests, the request sequence
// the load cycles through, and the open-loop rate.
type workload struct {
	name    string
	rate    float64 // open-loop requests per second
	preload []*op   // schema PUTs sent during setup
	seq     []*op
}

// workloadNames lists the workloads in the order "all" runs them.
var workloadNames = []string{"inline_zipf", "registered_batch", "chase_distinct", "schema_edits"}

// generate builds a workload from the seed: every request body and the
// expected verdict of every answer, computed with core on the same
// inputs before any server runs. The seed draws names, goals and the
// order of reads; the mix of instance shapes is fixed, so every seed
// measures the same amount of work.
func generate(name string, seed uint64) (*workload, error) {
	rng := rand.New(rand.NewPCG(seed, 0x6465706265))
	switch name {
	case "inline_zipf":
		return inlineZipf(rng)
	case "registered_batch":
		return registeredBatch(rng)
	case "chase_distinct":
		return chaseDistinct(rng)
	case "schema_edits":
		return schemaEdits(rng)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// instance is one inline implication question. Instances of one shape
// share sys, their Σ compiled once for the oracle; nil means compile.
type instance struct {
	db     *schema.Database
	sigma  []deps.Dependency
	goal   deps.Dependency
	budget int
	sys    *core.System
}

func compile(db *schema.Database, sigma []deps.Dependency) (*core.System, error) {
	sys := core.NewSystem(db)
	return sys, sys.Add(sigma...)
}

func schemeLines(db *schema.Database) []string {
	var out []string
	for _, n := range db.Names() {
		s, _ := db.Scheme(n)
		out = append(out, s.String())
	}
	return out
}

func depLines(ds []deps.Dependency) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.String()
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always marshal
	}
	return b
}

// impliesOp renders an inline /v1/implies request and its oracle.
func impliesOp(in instance) (*op, error) {
	sys := in.sys
	if sys == nil {
		var err error
		if sys, err = compile(in.db, in.sigma); err != nil {
			return nil, err
		}
	}
	a, err := sys.Implies(in.goal, core.Options{ChaseMaxTuples: in.budget})
	if err != nil {
		return nil, fmt.Errorf("oracle for %s: %w", in.goal, err)
	}
	body := mustJSON(serve.ImpliesRequest{
		Schema: schemeLines(in.db), Sigma: depLines(in.sigma),
		Goal: in.goal.String(), Budget: in.budget,
	})
	return newOp(http.MethodPost, "/v1/implies", body, []verdictSet{verdictFrom(a.Verdict)}), nil
}

// putOp renders a schema registration.
func putOp(name string, db *schema.Database, sigma []deps.Dependency) *op {
	body := mustJSON(serve.SchemaPutRequest{Schema: schemeLines(db), Sigma: depLines(sigma)})
	return newOp(http.MethodPut, "/v1/schemas/"+name, body, nil)
}

// buildOps runs build for i in [0, n) on every CPU; the oracle calls
// dominate generation time and are independent.
func buildOps(n int, build func(i int) (*op, error)) ([]*op, error) {
	ops := make([]*op, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	workers := runtime.NumCPU()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				ops[i], errs[i] = build(i)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ops, nil
}

// names draws n distinct three-letter identifiers.
func names(rng *rand.Rand, n int) []string {
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		b := []byte{byte('A' + rng.IntN(26)), byte('A' + rng.IntN(26)), byte('A' + rng.IntN(26))}
		if s := string(b); !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

const (
	inlineDocs = 4000
	inlineSeq  = 200000
)

// inlineZipf: 4000 distinct inline documents requested with Zipf(1.1)
// popularity. The document at popularity rank r has a shape fixed by r
// — FD chain, width-2 IND chain, or Proposition 4.1 pair, by r mod 3,
// sized by r/3, implied or not by r/36 — and seeded names, so hot and
// cold documents cost the same under every seed.
func inlineZipf(rng *rand.Rand) (*workload, error) {
	ins := make([]instance, inlineDocs)
	for r := range ins {
		ins[r] = inlineInstance(rng, r)
	}
	docs, err := buildOps(inlineDocs, func(i int) (*op, error) { return impliesOp(ins[i]) })
	if err != nil {
		return nil, err
	}
	zipf := rand.NewZipf(rng, 1.1, 1, inlineDocs-1)
	seq := make([]*op, inlineSeq)
	for i := range seq {
		seq[i] = docs[zipf.Uint64()]
	}
	return &workload{name: "inline_zipf", rate: 2000, seq: seq}, nil
}

func inlineInstance(rng *rand.Rand, r int) instance {
	implied := (r/36)%2 == 0
	switch r % 3 {
	case 0: // FD chain A0 -> A1 -> ... over 4..15 attributes
		n := 4 + (r/3)%12
		rel, as := names(rng, 1)[0], names(rng, n)
		var sigma []deps.Dependency
		for i := 0; i+1 < n; i++ {
			sigma = append(sigma, deps.NewFD(rel, deps.Attrs(as[i]), deps.Attrs(as[i+1])))
		}
		goal := deps.NewFD(rel, deps.Attrs(as[0]), deps.Attrs(as[n-1]))
		if !implied {
			goal = deps.NewFD(rel, deps.Attrs(as[n-1]), deps.Attrs(as[0]))
		}
		return instance{db: schema.MustDatabase(schema.MustScheme(rel, deps.Attrs(as...)...)), sigma: sigma, goal: goal}
	case 1: // width-2 IND chain R0[A,B] <= R1[A,B] <= ... over 3..8 relations
		k := 3 + (r/3)%6
		rels, ab := names(rng, k), names(rng, 2)
		var schemes []*schema.Scheme
		var sigma []deps.Dependency
		for i, rel := range rels {
			schemes = append(schemes, schema.MustScheme(rel, deps.Attrs(ab...)...))
			if i+1 < k {
				sigma = append(sigma, deps.NewIND(rel, deps.Attrs(ab...), rels[i+1], deps.Attrs(ab...)))
			}
		}
		goal := deps.NewIND(rels[0], deps.Attrs(ab...), rels[k-1], deps.Attrs(ab...))
		if !implied {
			goal = deps.NewIND(rels[k-1], deps.Attrs(ab...), rels[0], deps.Attrs(ab...))
		}
		return instance{db: schema.MustDatabase(schemes...), sigma: sigma, goal: goal}
	default: // Proposition 4.1: R[X,Y] <= S[T,U] and S: T -> U give R: X -> Y
		rel, xy, tu := names(rng, 2), names(rng, 2), names(rng, 2)
		db := schema.MustDatabase(schema.MustScheme(rel[0], deps.Attrs(xy...)...), schema.MustScheme(rel[1], deps.Attrs(tu...)...))
		sigma := []deps.Dependency{
			deps.NewIND(rel[0], deps.Attrs(xy...), rel[1], deps.Attrs(tu...)),
			deps.NewFD(rel[1], deps.Attrs(tu[0]), deps.Attrs(tu[1])),
		}
		goal := deps.NewFD(rel[0], deps.Attrs(xy[0]), deps.Attrs(xy[1]))
		if !implied {
			goal = deps.NewFD(rel[0], deps.Attrs(xy[1]), deps.Attrs(xy[0]))
		}
		return instance{db: db, sigma: sigma, goal: goal}
	}
}

const (
	batchSchemas = 8
	batchChain   = 32
	batchGoals   = 64
	batchBodies  = 2000
)

// chainSystem is rel(A0..A(n-1)) with the FD chain A0 -> ... -> A(n-1).
func chainSystem(rel string, n int) (*schema.Database, []deps.Dependency) {
	as := make([]string, n)
	for i := range as {
		as[i] = fmt.Sprintf("A%d", i)
	}
	var sigma []deps.Dependency
	for i := 0; i+1 < n; i++ {
		sigma = append(sigma, deps.NewFD(rel, deps.Attrs(as[i]), deps.Attrs(as[i+1])))
	}
	return schema.MustDatabase(schema.MustScheme(rel, deps.Attrs(as...)...)), sigma
}

// registeredBatch: 8 registered 32-attribute FD chains and batches of
// 64 random goals A_i -> A_j (i < j, all implied) against one of them.
// Each schema names its relation differently, so its answers have their
// own cache keys: the 8 x 496 distinct goals are about four times the
// answer cache.
func registeredBatch(rng *rand.Rand) (*workload, error) {
	rel := func(s int) string { return fmt.Sprintf("C%d", s) }
	sys, err := compile(chainSystem(rel(0), batchChain))
	if err != nil {
		return nil, err
	}
	// One oracle per (i, j): the 8 schemas are one Σ renamed.
	var want [batchChain][batchChain]verdictSet
	for i := 0; i < batchChain; i++ {
		for j := i + 1; j < batchChain; j++ {
			a, err := sys.Implies(goalFD(rel(0), i, j), core.Options{})
			if err != nil {
				return nil, err
			}
			want[i][j] = verdictFrom(a.Verdict)
		}
	}
	w := &workload{name: "registered_batch", rate: 150}
	for s := 0; s < batchSchemas; s++ {
		db, sigma := chainSystem(rel(s), batchChain)
		w.preload = append(w.preload, putOp(fmt.Sprintf("chain%d", s), db, sigma))
	}
	for b := 0; b < batchBodies; b++ {
		s := rng.IntN(batchSchemas)
		req := serve.BatchRequest{SchemaName: fmt.Sprintf("chain%d", s)}
		var wants []verdictSet
		for g := 0; g < batchGoals; g++ {
			i := rng.IntN(batchChain - 1)
			j := i + 1 + rng.IntN(batchChain-1-i)
			req.Goals = append(req.Goals, goalFD(rel(s), i, j).String())
			wants = append(wants, want[i][j])
		}
		w.seq = append(w.seq, newOp(http.MethodPost, "/v1/batch", mustJSON(req), wants))
	}
	return w, nil
}

func goalFD(rel string, i, j int) deps.FD {
	return deps.NewFD(rel, deps.Attrs(fmt.Sprintf("A%d", i)), deps.Attrs(fmt.Sprintf("A%d", j)))
}

const (
	spiralPerK   = 400 // budgets per spiral depth k = 3..6
	wideFDPerM   = 20  // goals per wide-FD width m = 20..120
	spiralBudget = 200
)

// chaseDistinct: inline chase instances whose cache keys never repeat
// within a cycle of the sequence while their Σ shapes do, so the
// answer cache misses and the engine pool hits. Spirals (k = 3..6,
// budgets 200..998) end unknown and are never cached; wide-FD tableaux
// (m = 20..120, goal P[Bi == Bj], the seed drawing i and j) are
// implied, and the 2020 of them outnumber the cache's 1024 entries, so
// a key is evicted before it comes round again. Instance costs differ
// by an order of magnitude, so the sequence is stratified rather than
// shuffled: any stretch of it holds spirals and wide tableaux in their
// overall proportion, with depths, budgets and widths spread evenly.
// Each measurement window then sees the same mix.
func chaseDistinct(rng *rand.Rand) (*workload, error) {
	var spirals, wides []instance
	for k := 3; k <= 6; k++ {
		db, sigma, goal := benchws.SpiralInstance(k)
		sys, err := compile(db, sigma)
		if err != nil {
			return nil, err
		}
		for b := 0; b < spiralPerK; b++ {
			spirals = append(spirals, instance{db: db, sigma: sigma, goal: goal, budget: spiralBudget + b*2, sys: sys})
		}
	}
	for m := 20; m <= 120; m++ {
		db, sigma, _ := benchws.WideFDInstance(m)
		sys, err := compile(db, sigma)
		if err != nil {
			return nil, err
		}
		seen := map[[2]int]bool{}
		for len(seen) < wideFDPerM {
			i := 1 + rng.IntN(m)
			j := 1 + rng.IntN(m)
			if i >= j || seen[[2]int{i, j}] {
				continue
			}
			seen[[2]int{i, j}] = true
			goal := deps.NewRD("P", deps.Attrs(fmt.Sprintf("B%d", i)), deps.Attrs(fmt.Sprintf("B%d", j)))
			wides = append(wides, instance{db: db, sigma: sigma, goal: goal, sys: sys})
		}
	}
	// spirals holds depth-major budget runs, wides width-major goal runs;
	// a golden-ratio stride visits both in an evenly spread order.
	spirals, wides = stride(spirals), stride(wides)
	n := len(spirals) + len(wides)
	ins := make([]instance, 0, n)
	for s, w := 0, 0; s+w < n; {
		// Place a spiral while spirals stay within their share so far.
		if s < len(spirals) && (s+1)*n <= (s+w+1)*len(spirals) {
			ins = append(ins, spirals[s])
			s++
		} else {
			ins = append(ins, wides[w])
			w++
		}
	}
	seq, err := buildOps(len(ins), func(i int) (*op, error) { return impliesOp(ins[i]) })
	if err != nil {
		return nil, err
	}
	return &workload{name: "chase_distinct", rate: 600, seq: seq}, nil
}

// stride reorders xs by a step of about 0.618 len(xs), coprime to it, so
// that every short run of the result samples the whole of xs.
func stride[T any](xs []T) []T {
	n := len(xs)
	step := int(0.618 * float64(n))
	for gcd(step, n) != 1 {
		step++
	}
	out := make([]T, n)
	for i := range out {
		out[i] = xs[i*step%n]
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

const (
	editsSeq    = 20000
	editsSchema = "app"
)

// schemaEdits: one registered schema of four IND-connected components
// — an FD chain on R, S[X,Y] <= T[V,W] with T: V -> W, an FD chain on U,
// and Z: P -> Q. 90% of requests ask one of 8 goals by schema_name;
// 10% re-register Σ with one member dropped, rotating which, so edits
// invalidate cached answers while reads hit the cache.
func schemaEdits(rng *rand.Rand) (*workload, error) {
	db := schema.MustDatabase(
		schema.MustScheme("R", deps.Attrs("A0", "A1", "A2", "A3", "A4", "A5")...),
		schema.MustScheme("S", deps.Attrs("X", "Y")...),
		schema.MustScheme("T", deps.Attrs("V", "W")...),
		schema.MustScheme("U", deps.Attrs("B0", "B1", "B2", "B3")...),
		schema.MustScheme("Z", deps.Attrs("P", "Q")...),
	)
	fd := func(rel, x, y string) deps.Dependency { return deps.NewFD(rel, deps.Attrs(x), deps.Attrs(y)) }
	sigma := []deps.Dependency{
		fd("R", "A0", "A1"), fd("R", "A1", "A2"), fd("R", "A2", "A3"), fd("R", "A3", "A4"), fd("R", "A4", "A5"),
		deps.NewIND("S", deps.Attrs("X", "Y"), "T", deps.Attrs("V", "W")), fd("T", "V", "W"),
		fd("U", "B0", "B1"), fd("U", "B1", "B2"), fd("U", "B2", "B3"),
		fd("Z", "P", "Q"),
	}
	goals := []deps.Dependency{
		fd("R", "A0", "A5"), fd("R", "A5", "A0"),
		fd("S", "X", "Y"), deps.NewIND("S", deps.Attrs("X"), "T", deps.Attrs("V")),
		fd("U", "B0", "B3"), fd("U", "B3", "B0"),
		fd("Z", "P", "Q"), fd("T", "W", "V"),
	}
	// variants[0] is the full Σ; variants[1+i] drops member i.
	variants := [][]deps.Dependency{sigma}
	for i := range sigma {
		v := append(append([]deps.Dependency{}, sigma[:i]...), sigma[i+1:]...)
		variants = append(variants, v)
	}
	reads := make([]*op, len(goals))
	for g, goal := range goals {
		var want verdictSet
		for _, v := range variants {
			sys, err := compile(db, v)
			if err != nil {
				return nil, err
			}
			a, err := sys.Implies(goal, core.Options{})
			if err != nil {
				return nil, err
			}
			want |= verdictFrom(a.Verdict)
		}
		body := mustJSON(serve.ImpliesRequest{SchemaName: editsSchema, Goal: goal.String()})
		reads[g] = newOp(http.MethodPost, "/v1/implies", body, []verdictSet{want})
	}
	puts := make([]*op, len(sigma))
	for i := range sigma {
		puts[i] = putOp(editsSchema, db, variants[1+i])
	}
	w := &workload{name: "schema_edits", rate: 2500, preload: []*op{putOp(editsSchema, db, sigma)}}
	// Every tenth request is an edit, so each measurement window holds
	// the same share of them; the seed draws the reads.
	for i := 0; i < editsSeq; i++ {
		if i%10 == 9 {
			w.seq = append(w.seq, puts[(i/10)%len(puts)])
		} else {
			w.seq = append(w.seq, reads[rng.IntN(len(reads))])
		}
	}
	return w, nil
}
