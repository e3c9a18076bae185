package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"indfd/internal/obs"
)

// updateGolden regenerates the golden files instead of comparing (the
// Lemma 7.2 trace-golden convention):
//
//	go test ./cmd/depcheck/ -run TestExplainLemma72DOTGolden -update
var updateGolden = flag.Bool("update", false, "rewrite golden files")

const depFile = `
schema CUST(CID, NAME)
schema ORD(OID, CID)
CUST: CID -> NAME
ORD[CID] <= CUST[CID]
`

func setup(t *testing.T, custCSV, ordCSV string) (depPath, dataDir string) {
	t.Helper()
	dir := t.TempDir()
	depPath = filepath.Join(dir, "schema.dep")
	if err := os.WriteFile(depPath, []byte(depFile), 0o644); err != nil {
		t.Fatal(err)
	}
	dataDir = filepath.Join(dir, "data")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, content := range map[string]string{"CUST.csv": custCSV, "ORD.csv": ordCSV} {
		if err := os.WriteFile(filepath.Join(dataDir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return depPath, dataDir
}

func TestCleanData(t *testing.T) {
	dep, dir := setup(t, "CID,NAME\nc1,ann\n", "OID,CID\no1,c1\n")
	var out bytes.Buffer
	code, _, err := run(&out, dep, dir, "", false, false, false, "text", 0, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 0 || !strings.Contains(out.String(), "OK:") {
		t.Errorf("clean data: code %d, output %q", code, out.String())
	}
}

func TestViolationsAndRepair(t *testing.T) {
	dep, dir := setup(t, "CID,NAME\nc1,ann\n", "OID,CID\no1,c1\no2,c9\n")
	repairDir := filepath.Join(t.TempDir(), "fixed")
	var out bytes.Buffer
	code, _, err := run(&out, dep, dir, repairDir, false, false, false, "text", 0, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 3 {
		t.Errorf("code = %d, want 3", code)
	}
	if !strings.Contains(out.String(), "no witness") || !strings.Contains(out.String(), "repaired: 1 tuple(s) added") {
		t.Errorf("output:\n%s", out.String())
	}
	// The repaired data passes a second check.
	var out2 bytes.Buffer
	code, _, err = run(&out2, dep, repairDir, "", false, false, false, "text", 0, nil)
	if err != nil {
		t.Fatalf("re-check: %v", err)
	}
	if code != 0 {
		t.Errorf("repaired data still fails:\n%s", out2.String())
	}
}

func TestAdvise(t *testing.T) {
	dep, _ := setup(t, "CID,NAME\n", "OID,CID\n")
	var out bytes.Buffer
	code, _, err := run(&out, dep, "", "", true, false, false, "text", 256, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 0 || !strings.Contains(out.String(), "keys of CUST: {CID}") {
		t.Errorf("advice output wrong (code %d):\n%s", code, out.String())
	}
}

func TestErrors(t *testing.T) {
	if _, _, err := run(&bytes.Buffer{}, "", "", "", false, false, false, "text", 0, nil); err == nil {
		t.Errorf("missing -deps should error")
	}
	dep, _ := setup(t, "CID,NAME\n", "OID,CID\n")
	if _, _, err := run(&bytes.Buffer{}, dep, "", "", false, false, false, "text", 0, nil); err == nil {
		t.Errorf("missing -data without -advise should error")
	}
	if _, _, err := run(&bytes.Buffer{}, dep, "/nonexistent-dir", "", false, false, false, "text", 0, nil); err == nil {
		t.Errorf("bad data dir should error")
	}
	if _, _, err := run(&bytes.Buffer{}, "/nonexistent.dep", "", "", true, false, false, "text", 0, nil); err == nil {
		t.Errorf("bad deps path should error")
	}
}

// TestExplainLemma72Text answers the Lemma 7.2 query (testdata mirrors
// counterex.NewSection7(2)) in text mode: the verdict is yes via the
// chase, and the derivation's node lines and goal line are printed.
func TestExplainLemma72Text(t *testing.T) {
	var out bytes.Buffer
	code, _, err := run(&out, filepath.Join("testdata", "lemma72.dep"), "", "", false, true, false, "text", 1024, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	if code != 0 {
		t.Fatalf("code = %d, output:\n%s", code, got)
	}
	for _, want := range []string{
		"? F: A -> C  [unrestricted]",
		"verdict: yes  (engine chase)",
		"derivation of F: A -> C",
		"seed F(",
		"goal holds:",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestExplainLemma72DOTGolden pins depcheck -explain -format dot on the
// Lemma 7.2 instance byte for byte: the chase is deterministic, so the
// derivation DAG — leaves the two seed F tuples, internal nodes the
// FD/IND firings of Σ — renders identically on every run.
func TestExplainLemma72DOTGolden(t *testing.T) {
	var out bytes.Buffer
	code, _, err := run(&out, filepath.Join("testdata", "lemma72.dep"), "", "", false, true, false, "dot", 1024, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 0 {
		t.Fatalf("code = %d, output:\n%s", code, out.String())
	}
	got := out.String()
	path := filepath.Join("testdata", "lemma72.dot.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if got != string(want) {
		t.Errorf("dot output diverged from %s (re-run with -update if intended):\ngot:\n%s\nwant:\n%s",
			path, got, want)
	}
}

// TestExplainErrors covers the -explain failure modes: a bad format, a
// file with no query, and dot on an answer with no chase derivation.
func TestExplainErrors(t *testing.T) {
	dep, _ := setup(t, "CID,NAME\n", "OID,CID\n")
	if _, _, err := run(&bytes.Buffer{}, dep, "", "", false, true, false, "svg", 0, nil); err == nil {
		t.Errorf("bad -format should error")
	}
	if _, _, err := run(&bytes.Buffer{}, dep, "", "", false, true, false, "text", 0, nil); err == nil {
		t.Errorf("-explain without queries should error")
	}
	// An FD-only query answers via the fd engine (no chase derivation):
	// text mode prints the Armstrong proof, dot mode errors.
	qdep := filepath.Join(t.TempDir(), "q.dep")
	if err := os.WriteFile(qdep, []byte("schema R(A, B)\nR: A -> B\n? R: A -> B\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, _, err := run(&out, qdep, "", "", false, true, false, "text", 0, nil); err != nil {
		t.Fatalf("fd explain: %v", err)
	}
	if !strings.Contains(out.String(), "verdict: yes  (engine fd)") {
		t.Errorf("fd explain output:\n%s", out.String())
	}
	if _, _, err := run(&bytes.Buffer{}, qdep, "", "", false, true, false, "dot", 0, nil); err == nil {
		t.Errorf("dot without a chase derivation should error")
	}
}

func TestRunInstrumented(t *testing.T) {
	// A violating dataset with a repair, fully instrumented: the registry
	// collects lint check counters and chase repair counters, and the run
	// returns one root span per phase, the advise pass's probe chases and
	// the repair's chase under theirs.
	dep, dir := setup(t, "CID,NAME\nc1,ann\n", "OID,CID\no1,c1\no2,c9\n")
	repairDir := filepath.Join(t.TempDir(), "fixed")
	reg := obs.New()
	var out bytes.Buffer
	code, roots, err := run(&out, dep, dir, repairDir, true, false, false, "text", 256, reg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 3 {
		t.Errorf("code = %d, want 3", code)
	}
	snap := reg.Snapshot()
	if snap.Counters["lint.deps_checked"] != 2 || snap.Counters["lint.violations"] != 1 {
		t.Errorf("lint counters wrong: %v", snap.Counters)
	}
	if snap.Counters["chase.tuples_created"] == 0 {
		t.Errorf("advise/repair chases left no chase counters: %v", snap.Counters)
	}
	if len(snap.Spans) != 0 {
		t.Errorf("the registry kept %d spans", len(snap.Spans))
	}
	var names []string
	for _, sp := range roots {
		names = append(names, sp.Name)
		if sp.Running || len(sp.Children) == 0 {
			t.Errorf("root %s: running=%v with %d children", sp.Name, sp.Running, len(sp.Children))
		}
	}
	if got, want := strings.Join(names, " "), "depcheck.advise depcheck.check depcheck.repair"; got != want {
		t.Errorf("root spans = %q, want %q", got, want)
	}
	if len(roots) == 3 {
		if c := roots[1].Children[0]; c.Name != "lint.check" {
			t.Errorf("check root's child = %s, want lint.check", c.Name)
		}
		if c := roots[2].Children[0]; c.Name != "chase.complete" {
			t.Errorf("repair root's child = %s, want chase.complete", c.Name)
		}
	}
	// Without a registry nothing is traced.
	if _, roots, _ := run(&bytes.Buffer{}, dep, dir, "", true, false, false, "text", 256, nil); roots != nil {
		t.Errorf("uninstrumented run returned %d roots", len(roots))
	}
	// -explain and -profile return each answered query's tree.
	_, roots, err = run(&bytes.Buffer{}, filepath.Join("testdata", "lemma72.dep"), "", "", false, true, true, "text", 1024, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 2 || roots[0].Name != "core.query" || roots[1].Name != "core.query" {
		t.Errorf("explain+profile roots = %+v, want two core.query trees", roots)
	}
}

// TestProfileLemma72 answers the Lemma 7.2 query with -profile: the
// chase decides it, and the per-dependency cost table attributes
// firings to the members of Σ that the derivation uses.
func TestProfileLemma72(t *testing.T) {
	var out bytes.Buffer
	code, _, err := run(&out, filepath.Join("testdata", "lemma72.dep"), "", "", false, false, true, "text", 1024, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	if code != 0 {
		t.Fatalf("code = %d, output:\n%s", code, got)
	}
	for _, want := range []string{
		"? F: A -> C  [unrestricted]",
		"verdict: yes  (engine chase)",
		"KIND", "FIRINGS", "SCANNED", "DEPENDENCY",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestProfileErrors covers -profile failure modes: no queries in the
// file, and the no-profile note for engines that report none.
func TestProfileErrors(t *testing.T) {
	dep, _ := setup(t, "CID,NAME\n", "OID,CID\n")
	if _, _, err := run(&bytes.Buffer{}, dep, "", "", false, false, true, "text", 0, nil); err == nil {
		t.Errorf("-profile without queries should error")
	}
	// An FD-only query answers via the fd engine, which has no profile.
	qdep := filepath.Join(t.TempDir(), "q.dep")
	if err := os.WriteFile(qdep, []byte("schema R(A, B)\nR: A -> B\n? R: A -> B\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, _, err := run(&out, qdep, "", "", false, false, true, "text", 0, nil); err != nil {
		t.Fatalf("fd profile: %v", err)
	}
	if !strings.Contains(out.String(), "no per-dependency profile") {
		t.Errorf("fd profile output:\n%s", out.String())
	}
}
