// Command perfbench is the repository benchmark. It runs one named
// workload against the Shift-Table serving stack, checks every answer
// against ranks computed independently of the index, and prints one JSON
// result line whose metrics BENCHMARK.json at the repository root
// describes.
//
// Usage (normally through run.sh, which builds this binary and
// shiftserver first):
//
//	perfbench -workload lookup-10m|http-find-200k -seed N
//	          -seconds S -trace 0|1 -server-bin PATH -work DIR
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// it carries the per-layer metrics, measured with spans recorded around
// every layer call and a ladder of rungs, one per layer. README.md lists
// what each metric means on each workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// clients is how many load goroutines (or HTTP connections) a workload
// drives its read path with; it never exceeds the CPU count.
const clients = 2

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) == 1 && args[0] == spinFlag {
		return spin()
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed every input is derived from")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	serverBin := fs.String("server-bin", "", "path to the shiftserver binary (http-find-200k)")
	work := fs.String("work", ".bench_build/perfbench", "directory for stores, replicas, traces and results")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if err := checkLoad(clients); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	cfg := runConfig{
		Workload:  *workload,
		Size:      spec,
		Seed:      *seed,
		Measure:   time.Duration(*seconds * float64(time.Second)),
		Traced:    *trace == 1,
		ServerBin: *serverBin,
		Work:      *work,
	}
	if err := os.MkdirAll(cfg.Work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	spin, err := startSpinners()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res, err := runWorkload(cfg)
	spin.stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	env := describeEnv(cfg)
	if err := saveResult(cfg, env, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	envLine, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envLine)
	printTable(res)
	line, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d wrong answers\n", res.Wrong)
	}
	return res.exitCode()
}

// checkLoad refuses a load level above the CPU count: on a box with
// fewer CPUs the load generator would compete with the system under test
// for the same cores.
func checkLoad(n int) error {
	if cpus := runtime.NumCPU(); n > cpus {
		return fmt.Errorf("refusing %d load goroutines on %d CPUs", n, cpus)
	}
	return nil
}

// runConfig is one invocation.
type runConfig struct {
	Workload  string
	Size      sizes
	Seed      int64
	Measure   time.Duration
	Traced    bool
	ServerBin string
	Work      string
	// corruptRank makes lookup-10m's reference wrong by one at a single
	// query, so tests can see a wrong answer reported and refused.
	corruptRank bool
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload hands back: every metric it measured plus
// the operation counts. Wrong counts answers that disagreed with the
// reference ranks; Failed also counts transport errors and refusals.
type result struct {
	Attempted int64
	Failed    int64
	Wrong     int64
	Rejected  int64
	Correct   bool
	Metrics   map[string]metric
	// Samples records how many samples each latency metric rests on.
	Samples map[string]int
}

func newResult() *result {
	return &result{Correct: true, Metrics: map[string]metric{}, Samples: map[string]int{}}
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// count folds one phase's operation counts in.
func (r *result) count(c opCounts) {
	r.Attempted += c.attempted
	r.Failed += c.failed()
	r.Wrong += c.wrong
	r.Rejected += c.rejected
	if c.wrong > 0 {
		r.Correct = false
	}
}

// exitCode is the command's exit status: any wrong answer fails the run.
func (r *result) exitCode() int {
	if !r.Correct {
		return 1
	}
	return 0
}

// summary is the result line's exact shape.
func (r *result) summary() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
}

// printTable prints every metric by name with its unit, sorted, before
// the JSON line.
func printTable(r *result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		samples := ""
		if s, ok := r.Samples[n]; ok {
			samples = fmt.Sprintf("  (%d samples)", s)
		}
		fmt.Printf("%-44s %16.4f %-6s%s\n", n, m.Value, m.Unit, samples)
	}
	fmt.Printf("%-44s %16d\n%-44s %16d\n", "attempted", r.Attempted, "failed", r.Failed)
}

// envInfo records where and how a result was measured.
type envInfo struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    string `json:"seconds"`
	Traced     bool   `json:"traced"`
	Commit     string `json:"commit"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Clients    int    `json:"clients"`
}

func describeEnv(cfg runConfig) envInfo {
	return envInfo{
		Workload:   cfg.Workload,
		Seed:       cfg.Seed,
		Seconds:    cfg.Measure.String(),
		Traced:     cfg.Traced,
		Commit:     commit(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Clients:    clients,
	}
}

// commit reports the VCS revision the binary was built from, when the
// build saw one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// saveResult writes the full record — environment, metrics, counts and
// sample sizes — beside the other run outputs.
func saveResult(cfg runConfig, env envInfo, r *result) error {
	dir := filepath.Join(cfg.Work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := struct {
		Env       envInfo           `json:"env"`
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Wrong     int64             `json:"wrong"`
		Metrics   map[string]metric `json:"metrics"`
		Samples   map[string]int    `json:"samples"`
	}{env, r.Correct, r.Attempted, r.Failed, r.Wrong, r.Metrics, r.Samples}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.Workload, cfg.Seed, boolInt(cfg.Traced))
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
