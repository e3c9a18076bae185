// Command lbared demonstrates the Theorem 3.3 reduction: it simulates a
// linear bounded automaton on an input, builds the corresponding
// IND-implication instance, decides it with the Section 3 decision
// procedure, and confirms the two agree.
//
// Usage:
//
//	lbared [-machine eraser|rejector] [-n 3] [-show] [-chain]
//	       [-stats] [-trace-json FILE] [-pprof ADDR] [-memprofile FILE]
//
// With -stats, the decision procedure's ind.* counters (expansions,
// frontier high-water mark, chain length) and the run's span tree go to
// stderr; -trace-json FILE writes the same report as JSON, -pprof ADDR
// serves net/http/pprof, and -memprofile FILE writes an end-of-run heap
// profile — useful because the reduction's instances grow exponentially
// in n (Theorem 3.3).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"indfd/internal/cliutil"
	"indfd/internal/ind"
	"indfd/internal/lba"
	"indfd/internal/obs"
)

func main() {
	machine := flag.String("machine", "eraser", "machine to run: eraser or rejector")
	n := flag.Int("n", 3, "input length (a^n); must be ≥ 2")
	show := flag.Bool("show", false, "print the generated IND instance")
	chain := flag.Bool("chain", false, "print the Corollary 3.2 chain (the computation history)")
	obsFlags := cliutil.Register(flag.CommandLine)
	flag.Parse()
	if err := obsFlags.StartPprof(); err != nil {
		fatal(err)
	}
	reg := obsFlags.Registry()
	code, sp, err := run(os.Stdout, *machine, *n, *show, *chain, reg)
	if ferr := obsFlags.Finish(reg, []*obs.Span{sp}); err == nil {
		err = ferr
	}
	if err != nil {
		fatal(err)
	}
	os.Exit(code)
}

// run executes the demonstration, writing to w, and returns the process
// exit code and the run's span tree (nil when reg is nil).
func run(w io.Writer, machine string, n int, show, chain bool, reg *obs.Registry) (code int, sp *obs.Span, err error) {
	var m *lba.Machine
	switch machine {
	case "eraser":
		m = lba.Eraser()
	case "rejector":
		m = lba.Eraser()
		var rules []lba.Rewrite
		for _, r := range m.Rules {
			if r.To[0] != "h" {
				rules = append(rules, r)
			}
		}
		m.Rules = rules
	default:
		return 1, nil, fmt.Errorf("unknown machine %q", machine)
	}

	sp = reg.StartSpan("lbared.reduction")
	defer sp.End()
	sp.SetAttr("machine", machine)
	sp.SetInt("n", int64(n))

	input := lba.Input("a", n)
	simSp := sp.StartSpan("lba.simulate")
	accepts, err := m.Accepts(input, 0)
	simSp.End()
	if err != nil {
		return 1, sp, err
	}
	fmt.Fprintf(w, "machine %s on input a^%d: accepts=%v (space bound %d)\n", machine, n, accepts, n)

	redSp := sp.StartSpan("lba.reduce")
	inst, err := lba.Reduce(m, input)
	redSp.End()
	if err != nil {
		return 1, sp, err
	}
	sch, _ := inst.DB.Scheme("R")
	fmt.Fprintf(w, "reduction: 1 relation scheme, %d attributes, |Σ| = %d INDs of width %d, goal width %d\n",
		sch.Width(), len(inst.Sigma), inst.Sigma[0].Width(), inst.Goal.Width())
	if show {
		fmt.Fprintf(w, "goal: %v\n", inst.Goal)
		for _, d := range inst.Sigma {
			fmt.Fprintf(w, "  %v\n", d)
		}
	}

	decSp := sp.StartSpan("ind.decide")
	res, err := ind.Decide(inst.DB, inst.Sigma, inst.Goal)
	decSp.End()
	if err != nil {
		return 1, sp, err
	}
	res.Stats.Record(reg)
	decSp.SetInt("expanded", int64(res.Stats.Expanded))
	decSp.SetInt("frontier_peak", int64(res.Stats.FrontierPeak))
	fmt.Fprintf(w, "IND decision procedure: implied=%v (expanded %d expressions, visited %d)\n",
		res.Implied, res.Stats.Expanded, res.Stats.Visited)
	if res.Implied != accepts {
		return 1, sp, fmt.Errorf("REDUCTION DISAGREES WITH SIMULATION")
	}
	fmt.Fprintln(w, "reduction and simulation agree (Theorem 3.3)")
	if chain && res.Implied {
		fmt.Fprintln(w, "computation history (Corollary 3.2 chain):")
		for _, e := range res.Chain {
			fmt.Fprintf(w, "  %v\n", e)
		}
	}
	return 0, sp, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lbared:", err)
	os.Exit(1)
}
