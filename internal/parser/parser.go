// Package parser reads the repository's text format for database schemes,
// dependencies and implication queries:
//
//	# comment
//	schema R(A, B, C)
//	schema S(D, E)
//
//	R: A, B -> C          # functional dependency
//	R: -> C               # FD with empty left-hand side (constant column)
//	R[A,B] <= S[D,E]      # inclusion dependency
//	R[A == B]             # repeating dependency
//	R: A ->> B | C        # embedded multivalued dependency
//
//	? R: A -> C           # implication query
//	?fin R[B] <= R[A]     # finite-implication query
//
// Template dependencies (Section 4's contrast class) use row syntax:
// hypothesis rows, then "/", then the conclusion row:
//
//	R :: (x, y, z1) (x, y2, z2) / (x, y, z2)
//	? R :: (x, y, z1) (x, y2, z2) / (x, y2, z1)
//
// Blank lines and #-comments are ignored. The Unicode forms ⊆ and → are
// accepted as synonyms for <= and ->.
//
// Parse reads a whole document. ParseScheme and ParseDependency read one
// entry — a scheme without its "schema " keyword, or one dependency —
// through the same per-line normalization and the same grammar, for
// callers whose input already arrives one entry at a time.
package parser

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"

	"indfd/internal/deps"
	"indfd/internal/schema"
	"indfd/internal/td"
)

// QueryMode distinguishes unrestricted from finite implication queries.
type QueryMode int

const (
	// Unrestricted is implication over all databases (⊨).
	Unrestricted QueryMode = iota
	// Finite is implication over finite databases (⊨fin).
	Finite
)

// Query is a parsed implication query.
type Query struct {
	Mode QueryMode
	Goal deps.Dependency
}

// TDQuery is a parsed template-dependency implication query.
type TDQuery struct {
	Mode QueryMode
	Goal td.TD
}

// File is the result of parsing an input.
type File struct {
	DB        *schema.Database
	Sigma     []deps.Dependency
	TDs       []td.TD
	Queries   []Query
	TDQueries []TDQuery
}

// Parse reads the text format from r. Dependencies are validated against
// the schemes declared earlier in the input.
func Parse(r io.Reader) (*File, error) {
	f := &File{}
	var schemes []*schema.Scheme
	scanner := bufio.NewScanner(r)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := normalize(scanner.Text())
		if line == "" {
			continue
		}
		if err := parseLine(f, &schemes, line); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	if f.DB == nil {
		var err error
		f.DB, err = schema.NewDatabase(schemes...)
		if err != nil {
			return nil, err
		}
	}
	return f, nil
}

// ParseString is Parse over a string.
func ParseString(s string) (*File, error) { return Parse(strings.NewReader(s)) }

// ParseScheme parses one scheme entry, "R(A, B, C)": a document's schema
// line without its "schema " keyword. A blank entry (nothing left after
// comment stripping) yields a nil scheme and no error.
func ParseScheme(line string) (*schema.Scheme, error) {
	line, err := entry(line)
	if err != nil || line == "" {
		return nil, err
	}
	return parseScheme(line)
}

// ParseDependency parses one dependency entry in the forms of a
// document's Σ lines: an FD, IND, RD or EMVD. It does not validate the
// dependency against a schema; that is the caller's (Validate). Template
// dependencies are rejected — they are not deps.Dependency values (a
// document keeps them apart, in File.TDs). A blank entry yields a nil
// dependency and no error.
func ParseDependency(line string) (deps.Dependency, error) {
	line, err := entry(line)
	if err != nil || line == "" {
		return nil, err
	}
	if strings.Contains(line, "::") {
		return nil, fmt.Errorf("parser: template dependency %q is not accepted here", line)
	}
	return parseDep(line)
}

// normalize is the per-line normalization every entry point shares: a
// '#' starts a comment running to the end of the line, surrounding space
// is trimmed, and the Unicode operators ⊆ and → become <= and ->.
func normalize(line string) string {
	if i := strings.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	line = strings.TrimSpace(line)
	line = strings.ReplaceAll(line, "⊆", "<=")
	return strings.ReplaceAll(line, "→", "->")
}

// entry normalizes a single entry. A line break inside it is an error,
// checked before comment stripping: in a document it would start the
// next line, and a comment must not swallow it.
func entry(line string) (string, error) {
	if strings.Contains(line, "\n") {
		return "", errors.New("parser: line break inside one entry")
	}
	return normalize(line), nil
}

func parseLine(f *File, schemes *[]*schema.Scheme, line string) error {
	switch {
	case strings.HasPrefix(line, "schema "):
		s, err := parseScheme(strings.TrimSpace(strings.TrimPrefix(line, "schema ")))
		if err != nil {
			return err
		}
		*schemes = append(*schemes, s)
		return nil
	case strings.HasPrefix(line, "?fin "):
		return parseQuery(f, schemes, strings.TrimSpace(strings.TrimPrefix(line, "?fin ")), Finite)
	case strings.HasPrefix(line, "? "):
		return parseQuery(f, schemes, strings.TrimSpace(strings.TrimPrefix(line, "? ")), Unrestricted)
	case strings.Contains(line, "::"):
		t, err := parseTD(line)
		if err != nil {
			return err
		}
		if err := ensureDB(f, schemes); err != nil {
			return err
		}
		if err := t.Validate(f.DB); err != nil {
			return err
		}
		f.TDs = append(f.TDs, t)
		return nil
	default:
		d, err := parseDep(line)
		if err != nil {
			return err
		}
		if err := validate(f, schemes, d); err != nil {
			return err
		}
		f.Sigma = append(f.Sigma, d)
		return nil
	}
}

func parseQuery(f *File, schemes *[]*schema.Scheme, body string, mode QueryMode) error {
	if strings.Contains(body, "::") {
		t, err := parseTD(body)
		if err != nil {
			return err
		}
		if err := ensureDB(f, schemes); err != nil {
			return err
		}
		if err := t.Validate(f.DB); err != nil {
			return err
		}
		f.TDQueries = append(f.TDQueries, TDQuery{Mode: mode, Goal: t})
		return nil
	}
	d, err := parseDep(body)
	if err != nil {
		return err
	}
	if err := validate(f, schemes, d); err != nil {
		return err
	}
	f.Queries = append(f.Queries, Query{Mode: mode, Goal: d})
	return nil
}

func ensureDB(f *File, schemes *[]*schema.Scheme) error {
	if f.DB == nil {
		db, err := schema.NewDatabase(*schemes...)
		if err != nil {
			return err
		}
		f.DB = db
	}
	return nil
}

func validate(f *File, schemes *[]*schema.Scheme, d deps.Dependency) error {
	if err := ensureDB(f, schemes); err != nil {
		return err
	}
	return d.Validate(f.DB)
}

// parseTD parses "R :: (x,y) (x,z) / (x,w)".
func parseTD(s string) (td.TD, error) {
	parts := strings.SplitN(s, "::", 2)
	rel := strings.TrimSpace(parts[0])
	body := parts[1]
	slash := strings.LastIndex(body, "/")
	if slash < 0 {
		return td.TD{}, fmt.Errorf("parser: TD %q needs a '/' before the conclusion row", s)
	}
	hyps, err := parseRows(body[:slash])
	if err != nil {
		return td.TD{}, err
	}
	concl, err := parseRows(body[slash+1:])
	if err != nil {
		return td.TD{}, err
	}
	if len(hyps) == 0 || len(concl) != 1 {
		return td.TD{}, fmt.Errorf("parser: TD %q needs hypothesis rows and exactly one conclusion row", s)
	}
	return td.New(rel, hyps, concl[0]), nil
}

// parseRows parses a sequence of "(v1, v2, ...)" groups.
func parseRows(s string) ([][]string, error) {
	var out [][]string
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '(' {
			return nil, fmt.Errorf("parser: expected '(' in TD rows at %q", s)
		}
		close := strings.Index(s, ")")
		if close < 0 {
			return nil, fmt.Errorf("parser: unclosed TD row in %q", s)
		}
		var row []string
		for _, v := range strings.Split(s[1:close], ",") {
			v = strings.TrimSpace(v)
			if v == "" {
				return nil, fmt.Errorf("parser: empty variable in TD row %q", s[:close+1])
			}
			row = append(row, v)
		}
		out = append(out, row)
		s = strings.TrimSpace(s[close+1:])
	}
	return out, nil
}

// parseScheme parses "R(A, B, C)".
func parseScheme(s string) (*schema.Scheme, error) {
	open := strings.Index(s, "(")
	if open < 0 || !strings.HasSuffix(s, ")") {
		return nil, fmt.Errorf("parser: malformed scheme %q, want R(A,B,...)", s)
	}
	name := strings.TrimSpace(s[:open])
	attrs, err := parseAttrList(s[open+1 : len(s)-1])
	if err != nil {
		return nil, err
	}
	return schema.NewScheme(name, attrs...)
}

// parseDep parses one dependency. Its attribute names are substrings of
// s, and the FD, IND and RD forms hold both sides in one backing array
// (parseSides): the serving path parses every goal of every request
// here.
func parseDep(s string) (deps.Dependency, error) {
	// EMVD: "R: X ->> Y | Z" — check before FD since "->>" contains "->".
	if colon := strings.Index(s, ":"); colon >= 0 && strings.Contains(s, "->>") {
		rel := strings.TrimSpace(s[:colon])
		rest := s[colon+1:]
		arrow := strings.Index(rest, "->>")
		bar := strings.LastIndex(rest, "|")
		if arrow < 0 || bar < arrow {
			return nil, fmt.Errorf("parser: malformed EMVD %q, want R: X ->> Y | Z", s)
		}
		x, err := parseAttrList(rest[:arrow])
		if err != nil {
			return nil, err
		}
		y, err := parseAttrList(rest[arrow+3 : bar])
		if err != nil {
			return nil, err
		}
		z, err := parseAttrList(rest[bar+1:])
		if err != nil {
			return nil, err
		}
		return deps.NewEMVD(rel, x, y, z), nil
	}
	// IND: "R[X] <= S[Y]".
	if lhs, rhs, ok := strings.Cut(s, "<="); ok {
		lrel, xs, err := splitBracketed(strings.TrimSpace(lhs))
		if err != nil {
			return nil, err
		}
		rrel, ys, err := splitBracketed(strings.TrimSpace(rhs))
		if err != nil {
			return nil, err
		}
		x, y, err := parseSides(xs, ys, false)
		if err != nil {
			return nil, err
		}
		return deps.IND{LRel: lrel, X: x, RRel: rrel, Y: y}, nil
	}
	// RD: "R[X == Y]".
	if strings.Contains(s, "==") && strings.Contains(s, "[") {
		open := strings.Index(s, "[")
		if !strings.HasSuffix(s, "]") {
			return nil, fmt.Errorf("parser: malformed RD %q, want R[X == Y]", s)
		}
		rel := strings.TrimSpace(s[:open])
		xs, ys, ok := strings.Cut(s[open+1:len(s)-1], "==")
		if !ok {
			return nil, fmt.Errorf("parser: malformed RD %q", s)
		}
		x, y, err := parseSides(xs, ys, false)
		if err != nil {
			return nil, err
		}
		return deps.RD{Rel: rel, X: x, Y: y}, nil
	}
	// FD: "R: X -> Y".
	if colon := strings.Index(s, ":"); colon >= 0 && strings.Contains(s[colon+1:], "->") {
		rel := strings.TrimSpace(s[:colon])
		xs, ys, _ := strings.Cut(s[colon+1:], "->")
		x, y, err := parseSides(xs, ys, true)
		if err != nil {
			return nil, err
		}
		return deps.FD{Rel: rel, X: x, Y: y}, nil
	}
	return nil, fmt.Errorf("parser: unrecognized dependency %q", s)
}

// splitBracketed splits "R[A,B]" into the relation name and the
// attribute list between the brackets, unparsed.
func splitBracketed(s string) (string, string, error) {
	open := strings.Index(s, "[")
	if open < 0 || !strings.HasSuffix(s, "]") {
		return "", "", fmt.Errorf("parser: malformed projection %q, want R[A,B]", s)
	}
	return strings.TrimSpace(s[:open]), s[open+1 : len(s)-1], nil
}

// parseSides parses a dependency's two attribute lists into one backing
// array, each side capped at its own length so that appending to one
// never writes into the other. Only an FD's left side may be empty, and
// an empty side is nil.
func parseSides(xs, ys string, emptyX bool) (x, y []schema.Attribute, err error) {
	attrs := make([]schema.Attribute, 0, attrCount(xs)+attrCount(ys))
	if attrs, err = appendAttrList(attrs, xs, emptyX); err != nil {
		return nil, nil, err
	}
	n := len(attrs)
	if attrs, err = appendAttrList(attrs, ys, false); err != nil {
		return nil, nil, err
	}
	if n > 0 {
		x = attrs[:n:n]
	}
	return x, attrs[n:], nil
}

// parseAttrList parses one non-empty attribute list.
func parseAttrList(s string) ([]schema.Attribute, error) {
	return appendAttrList(make([]schema.Attribute, 0, attrCount(s)), s, false)
}

// attrCount is the number of names a comma-separated list holds: none
// when it is blank.
func attrCount(s string) int {
	if strings.TrimSpace(s) == "" {
		return 0
	}
	return strings.Count(s, ",") + 1
}

// appendAttrList scans a comma-separated attribute list onto dst, each
// name a substring of s. A blank list appends nothing, and is an error
// unless allowEmpty.
func appendAttrList(dst []schema.Attribute, s string, allowEmpty bool) ([]schema.Attribute, error) {
	list := strings.TrimSpace(s)
	if list == "" {
		if allowEmpty {
			return dst, nil
		}
		return nil, fmt.Errorf("parser: empty attribute list")
	}
	for rest := list; ; {
		part, tail, more := strings.Cut(rest, ",")
		a := strings.TrimSpace(part)
		if a == "" {
			return nil, fmt.Errorf("parser: empty attribute name in %q", list)
		}
		if strings.ContainsAny(a, "[]() ") {
			return nil, fmt.Errorf("parser: bad attribute name %q", a)
		}
		dst = append(dst, schema.Attribute(a))
		if !more {
			return dst, nil
		}
		rest = tail
	}
}
