// Command depbench is depserve's benchmark. For each workload it builds
// and starts depserve, drives it from this one process over at most
// nproc connections — a closed loop that measures capacity, then an
// open loop at the workload's fixed rate — and between the phases probes
// a fixed reference server, whose rate scales depserve's timings to a
// nominal host speed. It then runs a separate in-process traced run that
// times each layer's calls. Every answer is checked against verdicts
// computed with core before the server starts.
//
// Usage (from the repository root):
//
//	bash bench/run.sh [--workload all|NAME] [--seed N] [--seconds S]
//	                  [--trace -1|0|1] [--out FILE]
//	bash bench/run.sh --compare A.json B.json
//
// Each metric prints as "workload metric value unit"; the last line is
// a JSON summary {"correct", "attempted", "failed", "metrics"}. The exit
// status is 1 when an answer was wrong or -compare found a regression,
// 2 when the benchmark could not run.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// spec is BENCHMARK.json: the workloads, the metrics the summary line
// carries, and the bounds -compare judges by.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec finds BENCHMARK.json in the working directory or its parent
// (the repository root, seen from bench/) and returns that root.
func loadSpec() (string, *spec, error) {
	for _, root := range []string{".", ".."} {
		raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return "", nil, err
		}
		var sp spec
		if err := json.Unmarshal(raw, &sp); err != nil {
			return "", nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		abs, err := filepath.Abs(root)
		return abs, &sp, err
	}
	return "", nil, errors.New("BENCHMARK.json not found here or in the parent directory")
}

// Run shape: after a warmup, every workload spends --seconds in
// closed-loop trials, open-loop windows and reference probes (shares
// below); the traced run traces for --seconds after the same warmup.
const (
	trials      = 10 // closed-loop trials and open-loop windows
	setupTrials = 15 // starts of each server; the median is setup_s
	// maxGenLagP50 bounds how late the open loop may send its median
	// request; later means the generator, not the server, set the pace
	// and the run is void.
	maxGenLagP50 = time.Millisecond
)

func warmupFor(d time.Duration) time.Duration { return min(3*time.Second, d/10) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("depbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "seed the request bodies are generated from")
	seconds := fs.Float64("seconds", 0, "measured seconds per workload (default: run_seconds in BENCHMARK.json)")
	trace := fs.Int("trace", -1, "1: traced run only (per-layer metrics); 0: no traced run (end-to-end metrics); -1: both")
	out := fs.String("out", "", "results file (default .bench_build/depbench/results.json in the repository root)")
	compare := fs.Bool("compare", false, "compare two results files given as arguments, judged by the BENCHMARK.json bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "depbench:", err)
		return 2
	}
	root, sp, err := loadSpec()
	if err != nil {
		return fail(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(errors.New("-compare takes two results files"))
		}
		worse, err := compareFiles(sp, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}
	names := workloadNames
	if *workload != "all" {
		if !slices.Contains(workloadNames, *workload) {
			return fail(fmt.Errorf("unknown workload %q (want all or one of %v)", *workload, workloadNames))
		}
		names = []string{*workload}
	}
	if *trace < -1 || *trace > 1 {
		return fail(fmt.Errorf("-trace %d: want -1, 0 or 1", *trace))
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	dur := time.Duration(*seconds * float64(time.Second))
	if *out == "" {
		*out = filepath.Join(root, ".bench_build", "depbench", "results.json")
	}
	dir := filepath.Dir(*out)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fail(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var bin, refBin string
	if *trace != 1 {
		if bin, err = build(root, "./cmd/depserve", dir); err != nil {
			return fail(err)
		}
		if refBin, err = build(filepath.Join(root, "bench"), refServerPkg, dir); err != nil {
			return fail(err)
		}
	}
	res := results{Host: hostInfo(root, *seed, *seconds, *trace), Workloads: map[string]map[string]metric{}}
	var attempted, failed int64
	summary := map[string]summaryMetric{}
	for _, name := range names {
		w, err := generate(name, *seed)
		if err != nil {
			return fail(err)
		}
		var ms []metric
		if *trace != 1 {
			launch := serverLauncher(bin, filepath.Join(dir, "depserve_"+name+".log"))
			refLaunch := serverLauncher(refBin, filepath.Join(dir, "refserver_"+name+".log"))
			r, err := runE2E(ctx, w, launch, refLaunch, dur)
			if err != nil {
				return fail(fmt.Errorf("%s: %w", name, err))
			}
			ms = append(ms, r.metrics...)
			attempted += r.attempted
			failed += r.failed
		}
		if *trace != 0 {
			t, err := traceRun(w, warmupFor(dur), dur, filepath.Join(dir, "trace_"+name+".json"))
			if err != nil {
				return fail(fmt.Errorf("%s traced run: %w", name, err))
			}
			ms = append(ms, t.metrics...)
			attempted += t.attempted
			failed += t.failed
		}
		printMetrics(stdout, name, ms)
		byName := map[string]metric{}
		for _, m := range ms {
			byName[m.Name] = m
		}
		res.Workloads[name] = byName
		var want []specMetric
		if *trace != 1 {
			want = append(want, sp.EndToEnd...)
		}
		if *trace != 0 {
			want = append(want, sp.PerLayer...)
		}
		for _, s := range want {
			m, ok := byName[s.Name]
			if !ok {
				return fail(fmt.Errorf("%s: BENCHMARK.json names metric %s, which the benchmark does not measure", name, s.Name))
			}
			key := s.Name
			if len(names) > 1 {
				key = name + "/" + s.Name
			}
			summary[key] = summaryMetric{Value: m.Median, Unit: m.Unit}
		}
	}
	if err := writeJSON(*out, res); err != nil {
		return fail(err)
	}
	line, err := json.Marshal(struct {
		Correct   bool                     `json:"correct"`
		Attempted int64                    `json:"attempted"`
		Failed    int64                    `json:"failed"`
		Metrics   map[string]summaryMetric `json:"metrics"`
	}{failed == 0, attempted, failed, summary})
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if failed > 0 {
		fmt.Fprintf(stderr, "depbench: %d of %d operations failed or answered wrong\n", failed, attempted)
		return 1
	}
	return 0
}

// printMetrics prints one "workload metric value unit" line per metric.
func printMetrics(w io.Writer, workload string, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "%s %s %s %s\n", workload, m.Name, strconv.FormatFloat(m.Median, 'g', -1, 64), m.Unit)
	}
}

type summaryMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one end-to-end or traced run of a workload measured.
type outcome struct {
	metrics           []metric
	attempted, failed int64 // operations sent, and those that failed or answered wrong
}

// Shares of --seconds: closed trials and open windows take 40% each,
// the reference probes between their slices the rest.
const (
	phaseShare     = 0.4
	probeShare     = 0.2
	slicesPerPhase = 4 // slices of each closed trial and open window
)

// server is one started server and the benchmark's connections to it.
type server struct {
	tg *target
	c  *client
}

func (s *server) stop() error {
	if s.tg == nil {
		return nil
	}
	if s.c != nil {
		s.c.close()
	}
	err := s.tg.stop()
	s.tg, s.c = nil, nil
	return err
}

// start launches the server, stopping the one s held, and returns the
// seconds from exec until /readyz answered and w's preload PUTs were done.
func (s *server) start(ctx context.Context, launch launcher, w *workload) (float64, error) {
	if err := s.stop(); err != nil {
		return 0, fmt.Errorf("stop server after setup trial: %w", err)
	}
	begin := time.Now()
	tg, err := launch()
	if err != nil {
		return 0, err
	}
	s.tg = tg
	if s.c, err = newClient(tg.addr, runtime.NumCPU()); err != nil {
		return 0, err
	}
	if err := setupServer(ctx, s.c, w); err != nil {
		return 0, err
	}
	return time.Since(begin).Seconds(), nil
}

// runE2E starts depserve setupTrials times, each start after one of the
// reference server, and keeps the last of each. After a warmup it
// measures closed-loop trials and open-loop windows, each cut into
// slices with a reference probe between every two. Each slice's timings
// are scaled by the mean rate of the probes on either side of it (see
// hostspeed.go).
func runE2E(ctx context.Context, w *workload, launch, refLaunch launcher, dur time.Duration) (r *outcome, err error) {
	var dep, ref server
	defer func() {
		for _, s := range []*server{&dep, &ref} {
			if serr := s.stop(); err == nil && serr != nil {
				err = fmt.Errorf("stop server: %w", serr)
			}
		}
	}()
	var setup, refSetup, setupAdj []float64
	for i := 0; i < setupTrials; i++ {
		rs, err := ref.start(ctx, refLaunch, refWorkload)
		if err != nil {
			return nil, fmt.Errorf("reference server: %w", err)
		}
		ds, err := dep.start(ctx, launch, w)
		if err != nil {
			return nil, err
		}
		setup, refSetup = append(setup, ds), append(refSetup, rs)
		setupAdj = append(setupAdj, ds*refNominalSetupS/rs)
	}

	l := &loader{c: dep.c, seq: w.seq}
	warm := warmupFor(dur)
	l.closedTrial(ctx, warm)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	slice := time.Duration(phaseShare * float64(dur) / (trials * slicesPerPhase))
	hc := &hostClock{
		l:     &loader{c: ref.c, seq: refWorkload.seq},
		probe: time.Duration(probeShare * float64(dur) / (2*trials*slicesPerPhase + 1)),
	}
	if _, err := probe(ctx, hc.l, warm/4); err != nil {
		return nil, fmt.Errorf("reference warmup: %w", err)
	}
	if _, err := hc.speed(ctx); err != nil {
		return nil, err
	}
	// Closed trials and open windows alternate, so a slow drift in the
	// host's speed reaches every metric alike.
	var opsPerS, opsAdj, allocs, p50, p90, p50Adj, p90Adj, lag50 []float64
	var lat, lag []float64 // every open-loop sample, for the tail percentiles
	for t := 0; t < trials; t++ {
		raw, scaled, a, err := l.closed(ctx, hc, slice)
		if err != nil {
			return nil, fmt.Errorf("closed loop: %w", err)
		}
		opsPerS, opsAdj, allocs = append(opsPerS, raw), append(opsAdj, scaled), append(allocs, a)
		var wlat, wadj, wlag []float64
		for s := 0; s < slicesPerPhase; s++ {
			samples, err := l.open(ctx, w.rate, slice)
			if err != nil {
				return nil, fmt.Errorf("open loop: %w", err)
			}
			speed, err := hc.speed(ctx)
			if err != nil {
				return nil, err
			}
			scale := math.Pow(speed, latencyExponent)
			for _, x := range samples {
				us := float64(x.latency.Nanoseconds()) / 1e3
				wlat, wadj = append(wlat, us), append(wadj, us*scale)
				wlag = append(wlag, float64(x.lag.Nanoseconds())/1e3)
			}
		}
		slices.Sort(wlat)
		slices.Sort(wadj)
		slices.Sort(wlag)
		p50, p90 = append(p50, percentile(wlat, 50)), append(p90, percentile(wlat, 90))
		p50Adj, p90Adj = append(p50Adj, percentile(wadj, 50)), append(p90Adj, percentile(wadj, 90))
		lag50 = append(lag50, percentile(wlag, 50))
		lat, lag = append(lat, wlat...), append(lag, wlag...)
	}
	slices.Sort(lat)
	slices.Sort(lag)
	rss, err := vmHWM(dep.tg.pid)
	if err != nil {
		return nil, err
	}
	if lag := quartiles(lag50)[1]; lag > float64(maxGenLagP50.Microseconds()) {
		return nil, fmt.Errorf("open loop sent its median request %.0fus late (bound %v): the generator, not the server, set the pace", lag, maxGenLagP50)
	}
	r = &outcome{attempted: l.attempted.Load(), failed: l.failed.Load()}
	r.metrics = []metric{
		newMetric("ops_per_s", "ops/s", opsAdj...),
		newMetric("latency_p50_us", "us", p50Adj...),
		newMetric("latency_p90_us", "us", p90Adj...),
		newMetric("setup_s", "s", setupAdj...),
		newMetric("raw_ops_per_s", "ops/s", opsPerS...),
		newMetric("raw_latency_p50_us", "us", p50...),
		newMetric("raw_latency_p90_us", "us", p90...),
		newMetric("raw_setup_s", "s", setup...),
		newMetric("ref_ops_per_s", "ops/s", hc.rates...),
		newMetric("ref_setup_s", "s", refSetup...),
		newMetric("latency_p99_us", "us", percentile(lat, 99)),
		newMetric("latency_samples", "count", float64(len(lat))),
		newMetric("gen_lag_p50_us", "us", lag50...),
		newMetric("gen_lag_p99_us", "us", percentile(lag, 99)),
		newMetric("allocs_per_op", "allocs", allocs...),
		newMetric("rss_peak_mb", "MiB", rss),
		newMetric("error_rate", "ratio", float64(r.failed)/float64(max(r.attempted, 1))),
	}
	return r, nil
}

// setupServer waits for /readyz and sends the workload's preload PUTs.
func setupServer(ctx context.Context, c *client, w *workload) error {
	if err := c.waitReady(ctx); err != nil {
		return err
	}
	var buf bytes.Buffer
	for _, o := range w.preload {
		if !do(c.conns[0], o, &buf) {
			return fmt.Errorf("preload %s %s failed: %s", o.method, o.path, buf.String())
		}
	}
	return nil
}

// build builds the command pkg, a path relative to the module in
// moduleDir, into dir and returns the binary's path.
func build(moduleDir, pkg, dir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(dir, filepath.Base(pkg)))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Dir = moduleDir
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build %s: %w", pkg, err)
	}
	return bin, nil
}

// results is the -out file: the host, and per workload each metric's
// trials, median and quartiles.
type results struct {
	Host      host                         `json:"host"`
	Workloads map[string]map[string]metric `json:"workloads"`
}

type host struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Revision   string  `json:"revision"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
}

func hostInfo(root string, seed uint64, seconds float64, trace int) host {
	h := host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", Revision: "unknown", Seed: seed, Seconds: seconds, Trace: trace,
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// A checkout without git history keeps "unknown".
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if rev, err := cmd.Output(); err == nil {
		h.Revision = strings.TrimSpace(string(rev))
	}
	return h
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readResults(path string) (*results, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, ms := range r.Workloads {
		for name, m := range ms {
			m.Name = name
			ms[name] = m
		}
	}
	return &r, nil
}

// judge compares metric b (the change) with a (the parent) under a
// BENCHMARK.json end-to-end entry: unresolved when either side's trial
// spread is wider than the bound, else worse or better when the medians
// differ by more than the bound, else same.
func judge(a, b metric, s specMetric) string {
	if max(a.spread(), b.spread()) > s.Bound {
		return "unresolved"
	}
	worse := change(a, b)
	if s.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > s.Bound:
		return "worse"
	case worse < -s.Bound:
		return "better"
	}
	return "same"
}

// change is b's median relative to a's.
func change(a, b metric) float64 {
	if a.Median == 0 {
		return 0
	}
	return (b.Median - a.Median) / a.Median
}

// compareFiles prints one row per (workload, metric) both files hold
// and reports whether any gated metric got worse. Metrics without a
// BENCHMARK.json bound print as "ungated".
func compareFiles(sp *spec, pathA, pathB string, w io.Writer) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	gated := map[string]specMetric{}
	for _, s := range sp.EndToEnd {
		gated[s.Name] = s
	}
	worse := false
	fmt.Fprintf(w, "%-16s %-34s %14s %14s %9s %s\n", "workload", "metric", "a", "b", "change", "verdict")
	for _, name := range workloadNames {
		ma, mb := a.Workloads[name], b.Workloads[name]
		var metrics []string
		for m := range ma {
			metrics = append(metrics, m)
		}
		slices.Sort(metrics)
		for _, m := range metrics {
			x, y := ma[m], mb[m]
			if _, ok := mb[m]; !ok {
				continue
			}
			v := "ungated"
			if s, ok := gated[m]; ok {
				v = judge(x, y, s)
			}
			worse = worse || v == "worse"
			fmt.Fprintf(w, "%-16s %-34s %14.6g %14.6g %+8.2f%% %s\n", name, m, x.Median, y.Median, 100*change(x, y), v)
		}
	}
	return worse, nil
}
