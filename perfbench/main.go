// Command perfbench is the repository's benchmark: it builds a
// two-server Frangipani cluster through the public frangipani package,
// drives one workload from a closed loop per server, checks every
// output, and prints each metric by name with its unit.
//
//	perfbench --workload meta-churn --seed 1 --seconds 10 --trace 0
//	perfbench --compare <results-a> <results-b>
//
// With --trace 0 the last line of standard output carries the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics
// (sources, critical-path split and host-cost probes) of a separately
// traced run. Every run also writes its stamped record under
// .bench_build/results, which --compare reads. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// compression is the simulated-to-real clock ratio of every cluster
// the benchmark builds. At 1, host CPU spent anywhere in the stack
// shows up 1:1 in the simulated latencies the benchmark reports.
const compression = 1.0

// resultsDir is where each run's stamped record lands, relative to the
// directory the benchmark runs from.
const resultsDir = ".bench_build/results"

func main() {
	workloadName := flag.String("workload", "", "workload to run: meta-churn, stream-cold or shared-rw")
	seed := flag.Int64("seed", 1, "workload seed; every written byte derives from it")
	seconds := flag.Int("seconds", 25, "length of the measured phase, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	compare := flag.Bool("compare", false, "compare two result sets given as arguments")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: --compare takes two result directories or files")
			os.Exit(2)
		}
		if err := runCompare(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}

	w := workloadByName(*workloadName)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workloadName)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}

	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, *seed, err)
		os.Exit(1)
	}
	rec := record{
		Stamp: newStamp(w.name, *seed, *trace == 1, res.hostUtil, res.samples),
		Result: result{
			Correct:   true,
			Attempted: res.attempted,
			Failed:    res.failed,
			Metrics:   res.metrics,
		},
	}
	stampLine, err := json.Marshal(rec.Stamp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("stamp %s\n", stampLine)
	if err := writeRecord(rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing record:", err)
	}
	last, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(last))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark contract reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp says where and how a result was measured.
type stamp struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Trace       bool    `json:"trace"`
	Compression float64 `json:"compression"`
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	GitSHA      string  `json:"git_sha"`
	// HostCPUUtil is this process's user+sys CPU time over the
	// measured phase, as a share of nproc CPUs.
	HostCPUUtil float64 `json:"host_cpu_util"`
	// Samples counts the latency samples behind each op's quantiles.
	Samples map[string]int `json:"samples"`
	Time    string         `json:"time"`
}

// record is one run as stored for --compare.
type record struct {
	Stamp  stamp  `json:"stamp"`
	Result result `json:"result"`
}

func newStamp(workload string, seed int64, trace bool, hostUtil float64, samples map[string]int) stamp {
	return stamp{
		Workload:    workload,
		Seed:        seed,
		Trace:       trace,
		Compression: compression,
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		GitSHA:      gitSHA(),
		HostCPUUtil: hostUtil,
		Samples:     samples,
		Time:        time.Now().UTC().Format(time.RFC3339),
	}
}

func writeRecord(rec record) error {
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if rec.Stamp.Trace {
		mode = "layer"
	}
	name := fmt.Sprintf("%s-%s-seed%d-%s.json", rec.Stamp.Workload, mode, rec.Stamp.Seed,
		time.Now().UTC().Format("20060102T150405.000000000"))
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(resultsDir, name), b, 0o644)
}

// gitSHA reads the checked-out commit from .git without running git;
// a checkout that is not a git repository reports "unknown".
func gitSHA() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}
