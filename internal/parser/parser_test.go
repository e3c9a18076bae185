package parser

import (
	"strings"
	"testing"

	"indfd/internal/deps"
)

const sample = `
# The manager/employee design from the introduction.
schema MGR(NAME, DEPT)
schema EMP(NAME, DEPT, SAL)

MGR[NAME,DEPT] <= EMP[NAME,DEPT]
EMP: NAME -> DEPT, SAL

? MGR[NAME] <= EMP[NAME]
?fin EMP: NAME -> SAL
`

func TestParseSample(t *testing.T) {
	f, err := ParseString(sample)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if f.DB.Len() != 2 {
		t.Errorf("schemes = %d", f.DB.Len())
	}
	if len(f.Sigma) != 2 {
		t.Fatalf("sigma = %v", f.Sigma)
	}
	if f.Sigma[0].String() != "MGR[NAME,DEPT] <= EMP[NAME,DEPT]" {
		t.Errorf("IND = %v", f.Sigma[0])
	}
	if f.Sigma[1].String() != "EMP: NAME -> DEPT,SAL" {
		t.Errorf("FD = %v", f.Sigma[1])
	}
	if len(f.Queries) != 2 {
		t.Fatalf("queries = %v", f.Queries)
	}
	if f.Queries[0].Mode != Unrestricted || f.Queries[1].Mode != Finite {
		t.Errorf("query modes wrong: %+v", f.Queries)
	}
}

func TestParseAllKinds(t *testing.T) {
	in := `
schema R(A, B, C)
R: A -> B
R: -> C
R[A] <= R[B]
R[A == B]
R: A ->> B | C
`
	f, err := ParseString(in)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	kinds := []deps.Kind{deps.KindFD, deps.KindFD, deps.KindIND, deps.KindRD, deps.KindEMVD}
	if len(f.Sigma) != len(kinds) {
		t.Fatalf("sigma = %v", f.Sigma)
	}
	for i, k := range kinds {
		if f.Sigma[i].Kind() != k {
			t.Errorf("sigma[%d] kind = %v, want %v", i, f.Sigma[i].Kind(), k)
		}
	}
	// The empty-LHS FD parsed as such.
	fd := f.Sigma[1].(deps.FD)
	if len(fd.X) != 0 || len(fd.Y) != 1 {
		t.Errorf("empty-LHS FD = %+v", fd)
	}
}

func TestParseUnicode(t *testing.T) {
	in := "schema R(A, B)\nR[A] ⊆ R[B]\nR: A → B\n"
	f, err := ParseString(in)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if len(f.Sigma) != 2 {
		t.Fatalf("sigma = %v", f.Sigma)
	}
	if f.Sigma[0].Kind() != deps.KindIND || f.Sigma[1].Kind() != deps.KindFD {
		t.Errorf("kinds = %v, %v", f.Sigma[0].Kind(), f.Sigma[1].Kind())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"schema R(A\n",                      // malformed scheme
		"schema R(A, A)\n",                  // duplicate attribute
		"schema R(A)\nR[A] <= S[A]\n",       // unknown relation
		"schema R(A)\nR: A -> \n",           // empty FD RHS
		"schema R(A,B)\nR[A == ]\n",         // empty RD side
		"schema R(A,B)\nnonsense here\n",    // unparseable
		"schema R(A,B)\nR[A,B] <= R[A]\n",   // width mismatch
		"schema R(A,B,C)\nR: A ->> B | B\n", // EMVD overlap
		"schema R(A,B)\nR[A] <= R[Z]\n",     // unknown attribute
		"schema R(A,B)\nR: A ->> B\n",       // EMVD without bar
	}
	for _, in := range cases {
		if _, err := ParseString(in); err == nil {
			t.Errorf("expected error for %q", in)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	// Rendering a parsed dependency and re-parsing it is stable.
	in := `
schema R(A, B, C)
schema S(D, E)
R: A, B -> C
R[A,B] <= S[D,E]
R[A,B == B,C]
`
	f, err := ParseString(in)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("schema R(A, B, C)\nschema S(D, E)\n")
	for _, d := range f.Sigma {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	g, err := ParseString(b.String())
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if len(g.Sigma) != len(f.Sigma) {
		t.Fatalf("round trip lost dependencies")
	}
	for i := range f.Sigma {
		if f.Sigma[i].Key() != g.Sigma[i].Key() {
			t.Errorf("round trip changed %v into %v", f.Sigma[i], g.Sigma[i])
		}
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	in := "  \n# only comments\nschema R(A)  # trailing\n\nR[A] <= R[A] # trivial\n"
	f, err := ParseString(in)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if len(f.Sigma) != 1 {
		t.Errorf("sigma = %v", f.Sigma)
	}
}

func TestEmptyInput(t *testing.T) {
	f, err := ParseString("")
	if err != nil {
		t.Fatalf("empty input should parse: %v", err)
	}
	if f.DB == nil || f.DB.Len() != 0 {
		t.Errorf("empty input should yield an empty scheme")
	}
}

func TestParseTDs(t *testing.T) {
	in := `
schema R(X, Y, Z)
R :: (x, y, z1) (x, y2, z2) / (x, y, z2)
? R :: (x, y, z1) (x, y2, z2) / (x, y2, z1)
?fin R :: (x, y, z1) / (x, y, z1)
`
	f, err := ParseString(in)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if len(f.TDs) != 1 {
		t.Fatalf("TDs = %v", f.TDs)
	}
	if got := f.TDs[0].String(); got != "R: (x,y,z1) (x,y2,z2) / (x,y,z2)" {
		t.Errorf("TD = %q", got)
	}
	if len(f.TDQueries) != 2 {
		t.Fatalf("TDQueries = %v", f.TDQueries)
	}
	if f.TDQueries[0].Mode != Unrestricted || f.TDQueries[1].Mode != Finite {
		t.Errorf("TD query modes wrong")
	}
}

func TestParseTDErrors(t *testing.T) {
	cases := []string{
		"schema R(X, Y)\nR :: (x, y)\n",          // no conclusion
		"schema R(X, Y)\nR :: / (x, y)\n",        // no hypotheses
		"schema R(X, Y)\nR :: (x, y / (x, y)\n",  // unclosed row
		"schema R(X, Y)\nR :: (x) / (x, y)\n",    // wrong width
		"schema R(X, Y)\nR :: (x, ) / (x, y)\n",  // empty variable
		"schema R(X, Y)\nR :: x, y / (x, y)\n",   // missing parens
		"schema R(X, Y)\nS :: (x, y) / (x, y)\n", // unknown relation
	}
	for _, in := range cases {
		if _, err := ParseString(in); err == nil {
			t.Errorf("expected error for %q", in)
		}
	}
}

func TestParseEntries(t *testing.T) {
	s, err := ParseScheme("  R(A, B) # the relation")
	if err != nil || s == nil || s.String() != "R(A,B)" {
		t.Errorf("ParseScheme = %v, %v", s, err)
	}
	for in, want := range map[string]string{
		"R[A] ⊆ S[B] # an IND": "R[A] <= S[B]",
		"R: A → B":             "R: A -> B",
		"R[A == B]":            "R[A == B]",
		"R: A ->> B | C":       "R: A ->> B | C",
	} {
		d, err := ParseDependency(in)
		if err != nil || d == nil || d.String() != want {
			t.Errorf("ParseDependency(%q) = %v, %v; want %s", in, d, err, want)
		}
	}
	// Blank entries parse to nothing, without an error.
	for _, in := range []string{"", "   ", "# a comment alone"} {
		if s, err := ParseScheme(in); s != nil || err != nil {
			t.Errorf("ParseScheme(%q) = %v, %v; want nil, nil", in, s, err)
		}
		if d, err := ParseDependency(in); d != nil || err != nil {
			t.Errorf("ParseDependency(%q) = %v, %v; want nil, nil", in, d, err)
		}
	}
	for _, in := range []string{
		"R: A -> B\nR: B -> C",        // a second line
		"R: A -> B # note\nR: B -> C", // hidden behind a comment
		"R :: (x, y) / (x, y)",        // a template dependency
		"schema S(D)",                 // a scheme declaration
	} {
		if d, err := ParseDependency(in); err == nil {
			t.Errorf("ParseDependency(%q) = %v, want an error", in, d)
		}
	}
	if s, err := ParseScheme("R(A, B)\nR: A -> B"); err == nil {
		t.Errorf("ParseScheme accepted a second line: %v", s)
	}
}
