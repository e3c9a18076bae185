package registry

import (
	"strings"
	"testing"

	"indfd/internal/deps"
	"indfd/internal/obs"
)

const chainDoc = `
schema R(A, B, C)
R: A -> B
R: B -> C
`

func mustPut(t *testing.T, r *Registry, name, source string) (*Entry, []string) {
	t.Helper()
	e, changed, err := r.Put(name, source)
	if err != nil {
		t.Fatalf("Put %s: %v", name, err)
	}
	return e, changed
}

func TestPutGetDeleteVersioning(t *testing.T) {
	reg := obs.New()
	r := New(reg)

	e1, changed := mustPut(t, r, "chain", chainDoc)
	if e1.Version != 1 {
		t.Errorf("first Put version = %d, want 1", e1.Version)
	}
	if len(changed) != 2 {
		t.Errorf("fresh Put changed %d members, want 2 (all of them): %v", len(changed), changed)
	}
	if len(e1.Sigma) != 2 || len(e1.Members) != 2 {
		t.Errorf("entry Sigma/Members = %d/%d, want 2/2", len(e1.Sigma), len(e1.Members))
	}
	if e1.Sys == nil || e1.Pool == nil || e1.DB == nil {
		t.Fatalf("entry missing pre-compiled artifacts: %+v", e1)
	}

	got, ok := r.Get("chain")
	if !ok || got != e1 {
		t.Fatalf("Get returned %+v ok=%t, want the published entry", got, ok)
	}
	if _, ok := r.Get("nope"); ok {
		t.Errorf("Get of an unregistered name succeeded")
	}

	// Re-Put with one FD swapped: version bumps, changed = the symmetric
	// difference (the removed FD and the added one).
	e2, changed := mustPut(t, r, "chain", strings.Replace(chainDoc, "R: B -> C", "R: A -> C", 1))
	if e2.Version != 2 {
		t.Errorf("second Put version = %d, want 2", e2.Version)
	}
	if len(changed) != 2 {
		t.Errorf("edit changed %v, want the removed and the added member", changed)
	}
	// Identical re-Put: nothing changed, version still bumps (the caller
	// asked for a new publication).
	e3, changed := mustPut(t, r, "chain", strings.Replace(chainDoc, "R: B -> C", "R: A -> C", 1))
	if e3.Version != 3 || len(changed) != 0 {
		t.Errorf("identical re-Put: version %d changed %v, want 3 and none", e3.Version, changed)
	}

	removed, ok := r.Delete("chain")
	if !ok || removed != e3 {
		t.Fatalf("Delete returned %+v ok=%t", removed, ok)
	}
	if _, ok := r.Delete("chain"); ok {
		t.Errorf("second Delete succeeded")
	}
	// Versions survive deletion: a re-registered name continues the
	// sequence, so no (name, version) pair ever names two different Σ.
	e4, _ := mustPut(t, r, "chain", chainDoc)
	if e4.Version != 4 {
		t.Errorf("post-delete Put version = %d, want 4", e4.Version)
	}

	snap := reg.Snapshot()
	if snap.Counters["registry.puts"] != 4 || snap.Counters["registry.deletes"] != 1 {
		t.Errorf("puts/deletes = %d/%d, want 4/1",
			snap.Counters["registry.puts"], snap.Counters["registry.deletes"])
	}
	if snap.Counters["registry.hits"] != 1 || snap.Counters["registry.misses"] != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1",
			snap.Counters["registry.hits"], snap.Counters["registry.misses"])
	}
	if snap.Gauges["registry.schemas"] != 1 {
		t.Errorf("registry.schemas = %d, want 1", snap.Gauges["registry.schemas"])
	}
}

func TestPutRejectsBadDocuments(t *testing.T) {
	r := New(obs.New())
	for name, doc := range map[string]string{
		"empty name":   chainDoc,
		"query line":   chainDoc + "? R: A -> C\n",
		"td query":     chainDoc + "?fin R: A -> C\n",
		"parse error":  "schema R(A, B)\nR: A => B\n",
		"bad relation": "schema R(A, B)\nS: A -> B\n",
	} {
		putName := "x"
		if name == "empty name" {
			putName = ""
		}
		if _, _, err := r.Put(putName, doc); err == nil {
			t.Errorf("%s: Put succeeded, want error", name)
		}
	}
	if n := len(r.List()); n != 0 {
		t.Errorf("%d entries registered after rejected Puts", n)
	}
}

func TestList(t *testing.T) {
	r := New(obs.New())
	mustPut(t, r, "b", chainDoc)
	mustPut(t, r, "a", chainDoc)
	got := r.List()
	if len(got) != 2 || got[0].Name != "a" || got[1].Name != "b" {
		t.Errorf("List = %v, want [a b]", got)
	}
}

func sigmaStrings(ds []deps.Dependency) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.String()
	}
	return out
}

func TestAlgebra(t *testing.T) {
	r := New(obs.New())
	a, _ := mustPut(t, r, "a", "schema R(A, B, C)\nR: A -> B\nR: B -> C\n")
	b, _ := mustPut(t, r, "b", "schema R(A, B, C)\nR: B -> C\nR[A] <= R[B]\n")

	union, err := Union(a, b)
	if err != nil {
		t.Fatalf("Union: %v", err)
	}
	if got := sigmaStrings(union); len(got) != 3 {
		t.Errorf("Union = %v, want 3 deduplicated members", got)
	}

	inter, err := Intersect(a, b)
	if err != nil {
		t.Fatalf("Intersect: %v", err)
	}
	if got := sigmaStrings(inter); len(got) != 1 || got[0] != "R: B -> C" {
		t.Errorf("Intersect = %v, want [R: B -> C]", got)
	}

	// A redundant FD set: A->B, B->C, A->C. The minimal cover drops the
	// implied A->C; the IND rides through untouched.
	c, _ := mustPut(t, r, "c", "schema R(A, B, C)\nR: A -> B\nR: B -> C\nR: A -> C\nR[A] <= R[B]\n")
	cover := sigmaStrings(MinimalCover(c))
	if len(cover) != 3 {
		t.Errorf("MinimalCover = %v, want 2 FDs + 1 IND", cover)
	}
	for _, s := range cover {
		if s == "R: A -> C" {
			t.Errorf("MinimalCover kept the redundant FD: %v", cover)
		}
	}
	if cover[len(cover)-1] != "R[A] <= R[B]" {
		t.Errorf("MinimalCover dropped or moved the IND: %v", cover)
	}

	// Operands over different schemas are rejected.
	d, _ := mustPut(t, r, "d", "schema S(X, Y)\nS: X -> Y\n")
	if _, err := Union(a, d); err == nil {
		t.Errorf("Union across schemas succeeded")
	}
	if _, err := Intersect(a, d); err == nil {
		t.Errorf("Intersect across schemas succeeded")
	}
}

func TestMemberDiffIsSymmetricDifference(t *testing.T) {
	r := New(obs.New())
	e1, _ := mustPut(t, r, "s", "schema R(A, B, C)\nR: A -> B\nR: B -> C\n")
	e2, _ := mustPut(t, r, "s", "schema R(A, B, C)\nR: B -> C\nR: A -> C\n")
	diff := memberDiff(e1, e2)
	if len(diff) != 2 {
		t.Fatalf("memberDiff = %v, want exactly the removed and added keys", diff)
	}
	// The shared member R: B -> C must not be in the diff.
	shared := deps.NewFD("R", deps.Attrs("B"), deps.Attrs("C")).Key()
	if _, ok := e2.Members[shared]; !ok {
		t.Fatalf("Members lacks the shared member's key %q", shared)
	}
	for _, k := range diff {
		if k == shared {
			t.Errorf("unchanged member %q in diff", k)
		}
	}
}
