// Command depcheck checks a concrete database (a directory of CSV files,
// one per relation) against the dependencies of a .dep file, reports
// every violation with the offending tuples, optionally repairs
// referential-integrity violations by chasing the missing tuples in,
// optionally prints design advice (derived keys, foreign keys, forced
// column equalities, finite-only consequences, redundant declarations),
// and with -explain answers the file's implication queries with their
// evidence: a formal ind/fd proof, the chase's provenance derivation
// DAG (as text or Graphviz dot via -format), or a counterexample. With
// -profile each query's answer is followed by its per-dependency cost
// table — which members of Σ fired, how many tuples they produced and
// scanned, and where the engine's time went — hottest first.
//
// Usage:
//
//	depcheck -deps schema.dep -data ./csvdir [-repair ./fixed] [-advise]
//	         [-explain] [-format text|dot] [-profile]
//	         [-stats] [-trace-json FILE] [-pprof ADDR] [-memprofile FILE]
//
// With -stats, a metrics and span report (lint.* check counters plus the
// chase.* counters of any repair or advice chases, then the span trees
// of the check, repair, advice and each answered query) goes to stderr;
// -trace-json FILE writes the same report as JSON, -pprof ADDR serves
// net/http/pprof, and -memprofile FILE writes an end-of-run heap
// profile.
//
// Exit status: 0 when the data satisfies every dependency, 3 when
// violations were found, 1 on errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"indfd/internal/chase"
	"indfd/internal/cliutil"
	"indfd/internal/core"
	"indfd/internal/data"
	"indfd/internal/lint"
	"indfd/internal/obs"
	"indfd/internal/parser"
)

func main() {
	depsPath := flag.String("deps", "", "path to the .dep file (schema + dependencies)")
	dataDir := flag.String("data", "", "directory of <relation>.csv files")
	repairDir := flag.String("repair", "", "write a repaired copy of the data to this directory")
	advise := flag.Bool("advise", false, "print design advice for the dependency set")
	explain := flag.Bool("explain", false, "answer the .dep file's queries with proofs/derivations/counterexamples")
	profile := flag.Bool("profile", false, "answer the .dep file's queries with per-dependency cost tables")
	format := flag.String("format", "text", "derivation output format for -explain: text or dot")
	budget := flag.Int("budget", 1024, "chase tuple budget for repair and advice")
	obsFlags := cliutil.Register(flag.CommandLine)
	flag.Parse()
	if err := obsFlags.StartPprof(); err != nil {
		fmt.Fprintln(os.Stderr, "depcheck:", err)
		os.Exit(1)
	}

	reg := obsFlags.Registry()
	code, roots, err := run(os.Stdout, *depsPath, *dataDir, *repairDir, *advise, *explain, *profile, *format, *budget, reg)
	if ferr := obsFlags.Finish(reg, roots); err == nil {
		err = ferr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "depcheck:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

// run does what the flags ask, writing to w, and returns the exit code
// and the root span trees it started, in order (none when reg is nil).
func run(w io.Writer, depsPath, dataDir, repairDir string, advise, explain, profile bool, format string, budget int, reg *obs.Registry) (code int, roots []*obs.Span, err error) {
	if depsPath == "" {
		return 1, nil, fmt.Errorf("-deps is required")
	}
	if format != "text" && format != "dot" {
		return 1, nil, fmt.Errorf("-format must be text or dot, got %q", format)
	}
	f, err := os.Open(depsPath)
	if err != nil {
		return 1, nil, err
	}
	file, err := parser.Parse(f)
	f.Close()
	if err != nil {
		return 1, nil, err
	}
	// keep adds a root span tree to the run's roots; a nil tree (reg is
	// nil) is dropped.
	keep := func(sp *obs.Span) *obs.Span {
		if sp != nil {
			roots = append(roots, sp)
		}
		return sp
	}

	if explain {
		if err := runExplain(w, file, format, budget, reg, keep); err != nil {
			return 1, roots, err
		}
	}

	if profile {
		if err := runProfile(w, file, budget, reg, keep); err != nil {
			return 1, roots, err
		}
	}

	if advise {
		// Parent every candidate-probe chase under one advise span so the
		// trace stays one tree rather than hundreds of roots.
		aSp := keep(reg.StartSpan("depcheck.advise"))
		adv, err := lint.Advise(file.DB, file.Sigma, chase.Options{MaxTuples: budget, Obs: reg, Span: aSp})
		aSp.End()
		if err != nil {
			return 1, roots, err
		}
		fmt.Fprintln(w, "=== design advice ===")
		fmt.Fprintln(w, adv)
	}

	if dataDir == "" {
		if !advise && !explain && !profile {
			return 1, roots, fmt.Errorf("nothing to do: pass -data, -advise, -explain and/or -profile")
		}
		return 0, roots, nil
	}
	db, err := data.LoadDir(file.DB, dataDir)
	if err != nil {
		return 1, roots, err
	}
	cSp := keep(reg.StartSpan("depcheck.check"))
	violations, err := lint.CheckObs(db, file.Sigma, reg, cSp)
	cSp.End()
	if err != nil {
		return 1, roots, err
	}
	if len(violations) == 0 {
		fmt.Fprintf(w, "OK: %d tuples satisfy all %d dependencies\n", db.Size(), len(file.Sigma))
		return 0, roots, nil
	}
	fmt.Fprintf(w, "%d violation(s):\n", len(violations))
	for _, v := range violations {
		fmt.Fprintf(w, "  %v\n", v)
	}
	if repairDir != "" {
		rSp := keep(reg.StartSpan("depcheck.repair"))
		repaired, added, err := lint.Repair(db, file.Sigma, chase.Options{MaxTuples: budget, Obs: reg, Span: rSp})
		rSp.End()
		if err != nil {
			return 1, roots, fmt.Errorf("repair failed: %w", err)
		}
		if err := data.SaveDir(repaired, repairDir); err != nil {
			return 1, roots, err
		}
		fmt.Fprintf(w, "repaired: %d tuple(s) added, written to %s\n", added, repairDir)
	}
	return 3, roots, nil
}

// runProfile answers every query of the .dep file with profiling on and
// prints each verdict followed by the per-dependency cost table —
// firings, tuples produced and scanned, scan time and rounds active per
// member of Σ, hottest first. Queries the polynomial fd/unary closures
// answer carry no profile (those engines do not iterate per member).
// Each answer's span tree goes to keep.
func runProfile(w io.Writer, file *parser.File, budget int, reg *obs.Registry, keep func(*obs.Span) *obs.Span) error {
	if len(file.Queries) == 0 {
		return fmt.Errorf("-profile needs at least one query (a `? goal` line) in the .dep file")
	}
	sys := core.NewSystem(file.DB)
	if err := sys.Add(file.Sigma...); err != nil {
		return err
	}
	opt := core.Options{ChaseMaxTuples: budget, Profile: true, Obs: reg}
	for _, q := range file.Queries {
		var a core.Answer
		var err error
		if q.Mode == parser.Finite {
			a, err = sys.ImpliesFinite(q.Goal, opt)
		} else {
			a, err = sys.Implies(q.Goal, opt)
		}
		if err != nil {
			return err
		}
		keep(a.Trace)
		mode := "unrestricted"
		if q.Mode == parser.Finite {
			mode = "finite"
		}
		fmt.Fprintf(w, "? %v  [%s]\n", q.Goal, mode)
		fmt.Fprintf(w, "verdict: %v  (engine %s)\n", a.Verdict, a.Engine)
		if a.DepProfile != nil {
			fmt.Fprint(w, a.DepProfile.Table())
		} else {
			fmt.Fprintf(w, "(engine %s reports no per-dependency profile)\n", a.Engine)
		}
	}
	return nil
}

// runExplain answers every `? goal` / `?fin goal` query of the .dep
// file with its evidence. Text format prints the verdict plus the
// engine's explanation (ind/fd proof, chase derivation, unary
// cardinality cycle, or counterexample); dot format renders the chase's
// derivation DAG in Graphviz syntax and errors on answers that carry no
// derivation (other engines, non-yes verdicts). Each answer's span tree
// goes to keep.
func runExplain(w io.Writer, file *parser.File, format string, budget int, reg *obs.Registry, keep func(*obs.Span) *obs.Span) error {
	if len(file.Queries) == 0 {
		return fmt.Errorf("-explain needs at least one query (a `? goal` line) in the .dep file")
	}
	sys := core.NewSystem(file.DB)
	if err := sys.Add(file.Sigma...); err != nil {
		return err
	}
	opt := core.Options{ChaseMaxTuples: budget, Provenance: true, Obs: reg}
	for _, q := range file.Queries {
		a, why, err := sys.Explain(q.Goal, opt, q.Mode == parser.Finite)
		if err != nil {
			return err
		}
		keep(a.Trace)
		if format == "dot" {
			if a.Derivation == nil {
				return fmt.Errorf("%v: no chase derivation to render as dot (verdict %v, engine %s)",
					q.Goal, a.Verdict, a.Engine)
			}
			fmt.Fprint(w, a.Derivation.DOT())
			continue
		}
		mode := "unrestricted"
		if q.Mode == parser.Finite {
			mode = "finite"
		}
		fmt.Fprintf(w, "? %v  [%s]\n", q.Goal, mode)
		fmt.Fprintf(w, "verdict: %v  (engine %s)\n", a.Verdict, a.Engine)
		if why != "" {
			fmt.Fprintln(w, why)
		}
	}
	return nil
}
