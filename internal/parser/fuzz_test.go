package parser

import (
	"strings"
	"testing"
)

// FuzzParse checks the parser never panics, that everything it accepts
// is well-formed (validated against the declared schemes) and re-parses
// after rendering, and that the single-entry parsers read every line of
// an accepted document as the document reader did.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"schema R(A, B)\nR: A -> B\n",
		"schema R(A, B)\nR[A] <= R[B]\n? R: A -> B\n",
		"schema R(A, B)\nR[A == B]\n",
		"schema R(A, B, C)\nR: A ->> B | C\n",
		"schema R(X, Y)\nR :: (x, y) / (x, y)\n",
		"schema R(A)\n?fin R[A] <= R[A]\n",
		"# comment\n\nschema R(A)\n",
		"schema R(A, B)\nR[A] ⊆ R[B]\nR: A → B\n",
		"nonsense",
		"schema R(",
		"R: A -> B",
		"schema R(A, B) # note\nR: A -> B # ⊆ in a comment\r\n? R: A → B\n",
		"schema R(A, B)\nR :: (x, y) / (x, y)\n? R :: (x, y) / (x, y)\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		if strings.Contains(in, "\n") {
			if _, err := ParseDependency(in); err == nil {
				t.Fatalf("ParseDependency accepted a line break inside one entry: %q", in)
			}
			if _, err := ParseScheme(in); err == nil {
				t.Fatalf("ParseScheme accepted a line break inside one entry: %q", in)
			}
		}
		file, err := ParseString(in)
		if err != nil {
			return
		}
		entriesAgree(t, in, file)
		// Accepted input: every dependency validates and round-trips.
		for _, d := range file.Sigma {
			if err := d.Validate(file.DB); err != nil {
				t.Fatalf("accepted invalid dependency %v: %v", d, err)
			}
			re, err := ParseString("schema " + renderSchemes(file) + "\n" + d.String() + "\n")
			if err != nil {
				t.Fatalf("rendered dependency %q does not re-parse: %v", d.String(), err)
			}
			if len(re.Sigma) != 1 || re.Sigma[0].Key() != d.Key() {
				t.Fatalf("round trip changed %v", d)
			}
		}
	})
}

// entriesAgree re-reads an accepted document one line at a time through
// ParseScheme and ParseDependency, dispatching each line as Parse does,
// and requires the document's schemes, its Σ in order and its goals.
// Template-dependency lines must be rejected by ParseDependency. The
// reader fixes the database at the first dependency line, so schemes
// declared after it are compared only as far as the database goes.
func entriesAgree(t *testing.T, in string, file *File) {
	t.Helper()
	var schemes, sigma, goals []string
	for _, raw := range strings.Split(in, "\n") {
		raw = strings.TrimSuffix(raw, "\r")
		line := normalize(raw)
		var goal string
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "schema "):
			s, err := ParseScheme(strings.TrimPrefix(line, "schema "))
			if err != nil || s == nil {
				t.Fatalf("ParseScheme(%q) = %v, %v; the document accepted it", line, s, err)
			}
			schemes = append(schemes, s.String())
			continue
		case strings.HasPrefix(line, "?fin "):
			goal = strings.TrimPrefix(line, "?fin ")
		case strings.HasPrefix(line, "? "):
			goal = strings.TrimPrefix(line, "? ")
		default:
			d, err := ParseDependency(raw)
			if strings.Contains(line, "::") {
				if err == nil {
					t.Fatalf("ParseDependency accepted the template dependency %q", raw)
				}
				continue
			}
			if err != nil || d == nil {
				t.Fatalf("ParseDependency(%q) = %v, %v; the document accepted it", raw, d, err)
			}
			sigma = append(sigma, d.Key())
			continue
		}
		if strings.Contains(goal, "::") {
			continue // a template-dependency query
		}
		d, err := ParseDependency(goal)
		if err != nil || d == nil {
			t.Fatalf("ParseDependency(%q) = %v, %v; the document accepted it as a goal", goal, d, err)
		}
		goals = append(goals, d.Key())
	}
	if len(schemes) < file.DB.Len() {
		t.Fatalf("read %d schemes line by line, the document declared %d", len(schemes), file.DB.Len())
	}
	for i, name := range file.DB.Names() {
		s, _ := file.DB.Scheme(name)
		if schemes[i] != s.String() {
			t.Fatalf("scheme %d: line by line %q, document %q", i, schemes[i], s)
		}
	}
	if len(sigma) != len(file.Sigma) {
		t.Fatalf("read %d Σ members line by line, the document %d", len(sigma), len(file.Sigma))
	}
	for i, d := range file.Sigma {
		if sigma[i] != d.Key() {
			t.Fatalf("Σ member %d: line by line %q, document %q", i, sigma[i], d.Key())
		}
	}
	if len(goals) != len(file.Queries) {
		t.Fatalf("read %d goals line by line, the document %d", len(goals), len(file.Queries))
	}
	for i, q := range file.Queries {
		if goals[i] != q.Goal.Key() {
			t.Fatalf("goal %d: line by line %q, document %q", i, goals[i], q.Goal.Key())
		}
	}
}

// renderSchemes renders the file's schemes back into declarations (all on
// one line after the leading "schema ").
func renderSchemes(f *File) string {
	var parts []string
	for _, name := range f.DB.Names() {
		s, _ := f.DB.Scheme(name)
		parts = append(parts, s.String())
	}
	return strings.Join(parts, "\nschema ")
}
