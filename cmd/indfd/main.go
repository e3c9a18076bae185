// Command indfd decides implication queries over sets of functional and
// inclusion dependencies, using the engines of the paper "Inclusion
// Dependencies and Their Interaction with Functional Dependencies"
// (Casanova, Fagin, Papadimitriou, 1982).
//
// Usage:
//
//	indfd [-v] [-budget N] [-stats] [-trace-json FILE] [-pprof ADDR]
//	      [-memprofile FILE] [file.dep]
//
// The input (a file, or stdin when no file is given) declares schemes,
// dependencies and queries:
//
//	schema MGR(NAME, DEPT)
//	schema EMP(NAME, DEPT, SAL)
//	MGR[NAME,DEPT] <= EMP[NAME,DEPT]
//	? MGR[NAME] <= EMP[NAME]      # unrestricted implication
//	?fin EMP: NAME -> SAL         # finite implication
//
// With -v, proofs and counterexamples are printed. With -stats, each
// query's engine cost (IND expansions, chase rounds and tuples) and a
// full metrics report with every query's span tree go to stderr;
// -trace-json FILE writes the same report as JSON, -pprof ADDR serves
// net/http/pprof, and -memprofile FILE writes an end-of-run heap
// profile. The exit status is 0 when every query was decided, 2 when
// some verdict was unknown (the general FD+IND problem is undecidable
// and the chase is budgeted), and 1 on input errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"indfd/internal/cliutil"
	"indfd/internal/core"
	"indfd/internal/deps"
	"indfd/internal/emvd"
	"indfd/internal/obs"
	"indfd/internal/parser"
	"indfd/internal/td"
)

func main() {
	verbose := flag.Bool("v", false, "print proofs and counterexamples")
	explain := flag.Bool("explain", false, "print derivations (implies -v; adds cardinality-cycle explanations)")
	budget := flag.Int("budget", 0, "chase tuple budget for the general engine (0 = default)")
	obsFlags := cliutil.Register(flag.CommandLine)
	flag.Parse()
	if err := obsFlags.StartPprof(); err != nil {
		fatal(err)
	}

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	cfg := config{
		verbose: *verbose || *explain,
		explain: *explain,
		budget:  *budget,
		obs:     obsFlags.Registry(),
		stats:   obsFlags.Stats,
		statsW:  os.Stderr,
	}
	code, roots, err := run(in, os.Stdout, cfg)
	if ferr := obsFlags.Finish(cfg.obs, roots); err == nil {
		err = ferr
	}
	if err != nil {
		fatal(err)
	}
	os.Exit(code)
}

// config carries the command's flags into run.
type config struct {
	verbose bool
	explain bool
	budget  int
	obs     *obs.Registry // nil = instrumentation off
	stats   bool          // print per-query engine costs to statsW
	statsW  io.Writer
}

// run parses the input, answers every query onto w, and returns the
// process exit code and each core query's span tree, in query order
// (none when cfg.obs is nil).
func run(in io.Reader, w io.Writer, cfg config) (code int, roots []*obs.Span, err error) {
	doExplain := cfg.explain
	verbose := cfg.verbose
	budget := cfg.budget
	if cfg.statsW == nil {
		cfg.statsW = io.Discard
	}
	file, err := parser.Parse(in)
	if err != nil {
		return 1, roots, err
	}
	if len(file.Queries) == 0 && len(file.TDQueries) == 0 {
		return 1, roots, fmt.Errorf("no queries (add lines starting with '?' or '?fin')")
	}

	// Split Σ: EMVDs go to their own engine; everything else to the core
	// system.
	sys := core.NewSystem(file.DB)
	var emvds []deps.EMVD
	for _, d := range file.Sigma {
		if e, ok := d.(deps.EMVD); ok {
			emvds = append(emvds, e)
			continue
		}
		if err := sys.Add(d); err != nil {
			return 1, roots, err
		}
	}

	exit := 0
	for _, q := range file.TDQueries {
		mode := "⊨"
		if q.Mode == parser.Finite {
			mode = "⊨fin"
		}
		var sigma []td.TD
		for _, t := range file.TDs {
			if t.Rel == q.Goal.Rel {
				sigma = append(sigma, t)
			}
		}
		res, err := td.Implies(file.DB, sigma, q.Goal, td.Options{MaxTuples: budget})
		if err != nil {
			return 1, roots, err
		}
		fmt.Fprintf(w, "%s Σ %s %v  [td chase]\n", verdictMark(res.Verdict.String()), mode, q.Goal)
		if res.Verdict == td.Unknown {
			exit = 2
		}
		if verbose && res.Counterexample != nil {
			fmt.Fprintf(w, "counterexample:\n%s\n", indent(res.Counterexample.String()))
		}
	}
	for _, q := range file.Queries {
		mode := "⊨"
		if q.Mode == parser.Finite {
			mode = "⊨fin"
		}
		if e, ok := q.Goal.(deps.EMVD); ok {
			res, err := emvd.Implies(file.DB, emvds, e, emvd.Options{MaxTuples: budget})
			if err != nil {
				return 1, roots, err
			}
			fmt.Fprintf(w, "%s Σ %s %v  [emvd chase]\n", verdictMark(res.Verdict.String()), mode, q.Goal)
			if res.Verdict == emvd.Unknown {
				exit = 2
			}
			if verbose && res.Counterexample != nil {
				fmt.Fprintf(w, "counterexample:\n%s\n", indent(res.Counterexample.String()))
			}
			continue
		}
		opt := core.Options{ChaseMaxTuples: budget, Obs: cfg.obs}
		var a core.Answer
		var why string
		if doExplain {
			a, why, err = sys.Explain(q.Goal, opt, q.Mode == parser.Finite)
		} else if q.Mode == parser.Finite {
			a, err = sys.ImpliesFinite(q.Goal, opt)
		} else {
			a, err = sys.Implies(q.Goal, opt)
		}
		if err != nil {
			return 1, roots, err
		}
		if a.Trace != nil {
			roots = append(roots, a.Trace)
		}
		if cfg.stats {
			printQueryStats(cfg.statsW, q.Goal, a)
		}
		if doExplain && why != "" && a.Proof == "" && a.Counterexample == nil {
			fmt.Fprintf(w, "%s Σ %s %v  [%s]\n%s\n", verdictMark(a.Verdict.String()), mode, q.Goal, a.Engine, indent(why))
			if a.Verdict == core.Unknown {
				exit = 2
			}
			continue
		}
		fmt.Fprintf(w, "%s Σ %s %v  [%s]\n", verdictMark(a.Verdict.String()), mode, q.Goal, a.Engine)
		if a.Verdict == core.Unknown {
			exit = 2
		}
		if verbose {
			if a.Proof != "" {
				fmt.Fprintf(w, "proof:\n%s\n", indent(a.Proof))
			}
			if a.Counterexample != nil {
				fmt.Fprintf(w, "counterexample:\n%s\n", indent(a.Counterexample.String()))
			}
		}
	}
	return exit, roots, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "indfd:", err)
	os.Exit(1)
}

// printQueryStats writes one line of per-query engine cost: which engine
// answered and what it spent (IND graph work, chase rounds and tuples).
func printQueryStats(w io.Writer, goal deps.Dependency, a core.Answer) {
	fmt.Fprintf(w, "stats: %v engine=%s", goal, a.Engine)
	if st := a.INDStats; st != nil {
		fmt.Fprintf(w, " ind_expanded=%d ind_generated=%d ind_visited=%d ind_frontier_peak=%d",
			st.Expanded, st.Generated, st.Visited, st.FrontierPeak)
	}
	if a.ChaseRounds > 0 || a.ChaseTuples > 0 {
		fmt.Fprintf(w, " chase_rounds=%d chase_tuples=%d", a.ChaseRounds, a.ChaseTuples)
	}
	fmt.Fprintln(w)
}

func verdictMark(v string) string {
	switch v {
	case "yes", "implied":
		return "✓"
	case "no", "not implied":
		return "✗"
	default:
		return "?"
	}
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(s, "\n", "\n  ")
}
