// Command perfbench is the repository's benchmark: one command that runs a
// named ARDA workload for a fixed wall-clock budget, checks every output
// against a reference, and prints the end-to-end metrics (or, with -trace 1,
// the per-layer metrics) as one JSON object on the last line of stdout.
//
// Workloads:
//
//	augment-rifs   discovery.Discover + core.Augment with paper defaults
//	               (RIFS) over the five corpora at scale 0.12, in-process
//	discover-join  the same calls with the f-test selector and the
//	               full-materialization plan over school-l, poverty and taxi
//	               at scale 1.0, in-process
//	serve-light    the ardad daemon over loopback (-concurrency 1), two
//	               closed-loop clients submitting cheap f-test specs
//
// Run it through run.sh, which builds this program and ardad from the
// checkout first:
//
//	bash perfbench/run.sh --workload augment-rifs --seed 1 --seconds 30 --trace 0
//
// The seed drives corpus generation and spec seeds; the program under test
// only sees the generated CSV files and specs. Every repetition of a corpus
// and spec must reproduce the reference result bit for bit (table digest,
// score bits, kept columns); a mismatch prints "correct": false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	ardad    string // path to the built ardad binary (serve-light)
	work     string // this run's private scratch directory
	traceDir string // where traced runs leave their span files
}

// metric is one reported figure.
type metric struct {
	name  string
	unit  string
	value float64
	// samples is how many measurements the value summarizes.
	samples int
}

// report is what a workload returns: the figures plus the outcome counts.
type report struct {
	attempted, failed int
	// mismatches lists repetitions whose output differed from the reference.
	mismatches []string
	metrics    []metric
	// details are workload-specific notes printed with the environment
	// record (tail percentile, layer shares, ...).
	details map[string]any
}

func (r *report) add(name, unit string, value float64, samples int) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, samples: samples})
}

func (r *report) note(key string, v any) {
	if r.details == nil {
		r.details = make(map[string]any)
	}
	r.details[key] = v
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*report, error){
	"augment-rifs":  runAugmentRIFS,
	"discover-join": runDiscoverJoin,
	"serve-light":   runServeLight,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: augment-rifs | discover-join | serve-light")
		seed     = flag.Int64("seed", 1, "seed for corpus generation and spec seeds")
		seconds  = flag.Float64("seconds", 10, "measured wall-clock budget per run")
		trace    = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run; 0 the end-to-end metrics")
		ardad    = flag.String("ardad", "", "path to a built ardad binary (serve-light)")
		work     = flag.String("work", ".bench_build/work", "scratch directory for corpora and daemon state")
	)
	flag.Parse()
	steal0 := readCPUStat()
	run, ok := workloads[*workload]
	if !ok {
		fatalf("unknown -workload %q", *workload)
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	dir, err := filepath.Abs(filepath.Join(*work, fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid())))
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("%v", err)
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		ardad:    *ardad,
		work:     dir,
		traceDir: filepath.Join(*work, "traces"),
	}
	rep, err := run(cfg)
	if rerr := os.RemoveAll(dir); rerr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: removing %s: %v\n", dir, rerr)
	}
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}
	for _, m := range rep.mismatches {
		fmt.Fprintf(os.Stderr, "perfbench: MISMATCH %s\n", m)
	}
	correct := len(rep.mismatches) == 0
	env := environment(cfg)
	env["cpu_steal_share"] = readCPUStat().stealShareSince(steal0)
	emit(env, cfg, rep, correct)
	if !correct {
		os.Exit(1)
	}
}

// emit prints the environment record, a readable table on stderr, and the
// result object as the last line of stdout.
func emit(env map[string]any, cfg config, rep *report, correct bool) {
	samples := make(map[string]int, len(rep.metrics))
	metrics := make(map[string]any, len(rep.metrics))
	for _, m := range rep.metrics {
		samples[m.name] = m.samples
		metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		fmt.Fprintf(os.Stderr, "  %-34s %14s %-6s (n=%d)\n", m.name, strconv.FormatFloat(m.value, 'g', 6, 64), m.unit, m.samples)
	}
	record := map[string]any{
		"env":      env,
		"samples":  samples,
		"details":  rep.details,
		"workload": cfg.workload,
	}
	mustPrintJSON(record)
	mustPrintJSON(map[string]any{
		"correct":   correct,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
	})
}

func mustPrintJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(b))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
