// Command perfbench is the repository's benchmark. It runs one workload
// per process, checks the program's outputs, and prints every metric by
// name and unit, ending with one JSON result line:
//
//	perfbench -root DIR --workload NAME --seed N --seconds S --trace 0|1
//	perfbench -root DIR --all [--seed N] [--seconds S] [--trace 0|1]
//	perfbench -root DIR --write-manifest
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that times calls into each layer and prints the per-layer
// metrics. --all runs every workload, each in a fresh process, and exits
// non-zero if any correctness check fails. --write-manifest regenerates
// BENCHMARK.json from the definitions in manifest.go.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// startEnv carries the parent's clock reading into a set-up probe child,
// so the child can time itself from the moment it was spawned.
const startEnv = "PERFBENCH_SPAWN_UNIX_NS"

// setupProbes is how many fresh processes set up each workload to give
// setup_s its median.
const setupProbes = 21

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// bench is one workload process's context.
type bench struct {
	root    string // checkout root
	work    string // scratch directory under .bench_build
	name    string
	seed    uint64
	seconds float64

	attempted, failed int64
}

// op counts one operation (a replication or a correctness check) and
// reports a failed one on standard error.
func (b *bench) op(ok bool, format string, args ...any) bool {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: FAILED: %s\n", b.name, fmt.Sprintf(format, args...))
	}
	return ok
}

func main() {
	root := flag.String("root", ".", "root of the checkout holding the banyan module")
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", runSeconds, "how long the timed phase runs")
	trace := flag.Int("trace", 0, "1: traced run with per-layer metrics")
	all := flag.Bool("all", false, "run every workload, each in a fresh process")
	manifest := flag.Bool("write-manifest", false, "write BENCHMARK.json and exit")
	probe := flag.Bool("setup-probe", false, "internal: set the workload up, print the elapsed time, exit")
	pass := flag.Bool("pass", false, "internal: run one paper-quick pass and report it as JSON")
	flag.Parse()

	switch {
	case *manifest:
		if err := writeManifest(*root); err != nil {
			fatal(err)
		}
		return
	case *all:
		os.Exit(runAll(*root, *seed, *seconds, *trace))
	}
	if !knownWorkload(*name) {
		fatal(fmt.Errorf("unknown workload %q (want one of %s)", *name, workloadNames()))
	}
	work := filepath.Join(*root, ".bench_build", "perfbench")
	if err := os.MkdirAll(work, 0o755); err != nil {
		fatal(err)
	}
	b := &bench{root: *root, work: work, name: *name, seed: *seed, seconds: *seconds}
	if *probe {
		if err := runSetupProbe(b); err != nil {
			fatal(err)
		}
		return
	}
	if *pass {
		if err := runPass(b); err != nil {
			fatal(err)
		}
		return
	}

	var metrics map[string]metricValue
	var err error
	if *trace == 1 {
		metrics, err = runTraced(b)
	} else {
		metrics, err = runUntraced(b)
	}
	if err != nil {
		fatal(err)
	}
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}
	printResult(res)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(2)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// runUntraced measures the end-to-end metrics.
func runUntraced(b *bench) (map[string]metricValue, error) {
	setup, err := measureSetup(b)
	if err != nil {
		return nil, err
	}
	var samples []unitSample
	switch b.name {
	case "paper-quick":
		samples, err = paperQuick(b)
	case "kernel-ref":
		samples, err = kernelRef(b)
	case "kernel-observed":
		samples, err = kernelObserved(b)
	case "graph-hotspot":
		samples, err = graphHotspot(b)
	}
	if err != nil {
		return nil, err
	}
	return endToEndMetrics(samples, setup, b.attempted, b.failed), nil
}

// endToEndMetrics reduces the timed units to the end-to-end metrics, each
// the median over units: one slow unit on a shared machine moves none.
func endToEndMetrics(samples []unitSample, setup time.Duration, attempted, failed int64) map[string]metricValue {
	var walls, cpus, rates, allocs, rss []float64
	for _, s := range samples {
		walls = append(walls, s.Wall.Seconds())
		cpus = append(cpus, s.CPU.Seconds())
		rates = append(rates, float64(s.Visits)/s.Wall.Seconds())
		allocs = append(allocs, float64(s.AllocBytes)/mb)
		rss = append(rss, s.PeakRSSMB)
	}
	m := map[string]metricValue{
		"wall_s":       {median(walls), "s"},
		"visits_per_s": {median(rates), "visits/s"},
		"cpu_s":        {median(cpus), "s"},
		"alloc_mb":     {median(allocs), "MB"},
		"peak_rss_mb":  {median(rss), "MB"},
		"setup_s":      {setup.Seconds(), "s"},
	}
	frac := 0.0
	if attempted > 0 {
		frac = float64(failed) / float64(attempted)
	}
	fmt.Printf("%-34s %14.6g %s\n", "failed_frac", frac, "ratio")
	fmt.Printf("%-34s %14d %s\n", "units", len(samples), "count")
	fmt.Printf("%-34s %14.6g %s\n", "unit wall spread (IQR/median)", spread(walls), "ratio")
	return m
}

// child returns a command running this binary with args. The child is
// killed if this process dies first, so no run leaves processes behind.
func child(args ...string) *exec.Cmd {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// measureSetup spawns set-up probes and returns their median time from
// spawn to the moment the first replication would start.
func measureSetup(b *bench) (time.Duration, error) {
	times := make([]float64, 0, setupProbes)
	for i := 0; i < setupProbes; i++ {
		cmd := child("-root", b.root, "-setup-probe", "-workload", b.name, "-seed", strconv.FormatUint(b.seed, 10))
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d", startEnv, time.Now().UnixNano()))
		out, err := cmd.Output()
		if err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		sec, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return 0, fmt.Errorf("set-up probe printed %q: %w", out, err)
		}
		times = append(times, sec)
	}
	return time.Duration(median(times) * float64(time.Second)), nil
}

// runSetupProbe sets the workload up in this fresh process and prints
// the seconds since the parent spawned it.
func runSetupProbe(b *bench) error {
	ns, err := strconv.ParseInt(os.Getenv(startEnv), 10, 64)
	if err != nil {
		return fmt.Errorf("set-up probe needs %s: %w", startEnv, err)
	}
	var ready time.Time
	switch b.name {
	case "paper-quick":
		ready, err = paperQuickReady(b)
	case "kernel-ref":
		ready, err = kernelReady(b, false)
	case "kernel-observed":
		ready, err = kernelReady(b, true)
	case "graph-hotspot":
		ready, err = graphReady(b)
	}
	if err != nil {
		return err
	}
	fmt.Println(ready.Sub(time.Unix(0, ns)).Seconds())
	return nil
}

// printMetrics prints metrics one a line, sorted by name, with units.
func printMetrics(indent string, metrics map[string]metricValue) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s%-34s %14.6g %s\n", indent, n, metrics[n].Value, metrics[n].Unit)
	}
}

// printResult prints every metric by name and unit, then the JSON
// result line, which is always the last line of standard output.
func printResult(res result) {
	printMetrics("", res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// runAll runs every workload in a fresh process and prints a combined
// table. It returns the exit code: non-zero if any workload failed.
func runAll(root string, seed uint64, seconds float64, trace int) int {
	code := 0
	type row struct {
		workload string
		res      result
	}
	var rows []row
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "perfbench: running %s\n", w.Name)
		cmd := child("-root", root, "-workload", w.Name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
		out, err := cmd.Output()
		res, perr := lastResult(out)
		if err != nil || perr != nil || !res.Correct {
			fmt.Fprintf(os.Stderr, "perfbench: %s failed (exit: %v, result: %v)\n", w.Name, err, perr)
			code = 1
		}
		if perr == nil {
			rows = append(rows, row{w.Name, res})
		}
	}
	for _, r := range rows {
		fmt.Printf("== %s: correct=%v attempted=%d failed=%d\n", r.workload, r.res.Correct, r.res.Attempted, r.res.Failed)
		printMetrics("   ", r.res.Metrics)
		fmt.Printf("   %-34s %14.6g %s\n", "failed_frac", float64(r.res.Failed)/float64(r.res.Attempted), "ratio")
	}
	return code
}

// lastResult parses the JSON result on the last line of out.
func lastResult(out []byte) (result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}
