// Command benchdiff guards the committed per-engine baseline: it runs
// the internal/benchws reference workloads fresh and compares them with
// BENCH_engines.json.
//
//	benchdiff [-baseline BENCH_engines.json] [-rounds 5]
//
// The gate is the deterministic work counters (chase rounds, IND
// expansions, fd closure passes, …): every one must equal the baseline
// exactly. Any drift means an engine's algorithm changed, and benchdiff
// exits 1; when the change is intended, regenerate the baseline with
// `make bench-json`. The benchws.*_ns wall times (best of -rounds) print
// next to the baseline's, headed by this host's CPU count, GOMAXPROCS,
// CPU model and Go version. They are for reading only and never set the
// exit status: the baseline records no host, so the ratios follow the
// host's speed as much as the code's. Timing claims belong to depbench
// (bench/).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"indfd/internal/benchws"
	"indfd/internal/obs"
)

func main() {
	baseline := flag.String("baseline", "BENCH_engines.json", "committed baseline snapshot to compare against")
	rounds := flag.Int("rounds", 5, "timing rounds per workload (best-of)")
	flag.Parse()

	if err := run(*baseline, *rounds); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run(baselinePath string, rounds int) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base obs.Snapshot
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse %s: %w", baselinePath, err)
	}

	reg := obs.New()
	if err := benchws.Run(reg, rounds); err != nil {
		return err
	}
	fresh := reg.Snapshot()

	fmt.Printf("host: nproc=%d GOMAXPROCS=%d cpu=%q go=%s (timings are informational)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version())
	fmt.Printf("%-20s %14s %14s %9s\n", "workload", "baseline ns", "fresh ns", "ratio")
	for _, w := range benchws.Workloads() {
		gauge := "benchws." + w.Name + "_ns"
		baseNS, ok := base.Gauges[gauge]
		freshNS := fresh.Gauges[gauge]
		if !ok || baseNS <= 0 {
			fmt.Printf("%-20s %14s %14d %9s\n", w.Name, "(absent)", freshNS, "-")
			continue
		}
		fmt.Printf("%-20s %14d %14d %8.2fx\n", w.Name, baseNS, freshNS, float64(freshNS)/float64(baseNS))
	}

	if drifts := counterDrift(&base, fresh); len(drifts) > 0 {
		return fmt.Errorf("%d counter(s) drifted from the baseline (regenerate it with `make bench-json` if the change is intended):\n  %s",
			len(drifts), strings.Join(drifts, "\n  "))
	}
	fmt.Printf("ok: all %d work counters match the baseline\n", len(base.Counters))
	return nil
}

// counterDrift lists, sorted, every counter whose fresh value differs
// from the baseline's (a counter the fresh run lacks reads 0), and every
// counter only the fresh run has.
func counterDrift(base, fresh *obs.Snapshot) []string {
	var drifts []string
	for k, want := range base.Counters {
		if got := fresh.Counters[k]; got != want {
			drifts = append(drifts, fmt.Sprintf("%s: %d -> %d", k, want, got))
		}
	}
	for k, got := range fresh.Counters {
		if _, ok := base.Counters[k]; !ok {
			drifts = append(drifts, fmt.Sprintf("%s: (absent) -> %d", k, got))
		}
	}
	sort.Strings(drifts)
	return drifts
}

// cpuModel reads the CPU model name from /proc/cpuinfo, or "unknown"
// where that file does not exist.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
