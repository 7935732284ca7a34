// Command perfbench is the repository's benchmark. It drives the program
// in-process (the `lamod build` pipeline, `lamod serve` replicas and the
// `lamod gateway` router, through their packages' public functions) with
// inputs generated from a seed, checks every output against the offline
// answer, and prints one JSON result line.
//
// Usage, from the root of a checkout (see run.py, which builds it):
//
//	perfbench --workload build-paper|serve-mixed|fleet-rollout --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the workload once untraced for reference and once with spans recorded
// around every layer, reports the per-layer metrics and the tracing
// overhead, prints the breakdown table and writes the spans to
// .bench_build/traces/. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// buildDir is the checkout-relative directory for everything the
// benchmark writes.
const buildDir = ".bench_build"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "build-paper, serve-mixed or fleet-rollout")
	seed := fs.Int64("seed", 1, "seed for the interactome and the request stream")
	seconds := fs.Int("seconds", 10, "length of the measured serving phase, in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload build-paper|serve-mixed|fleet-rollout --seed N --seconds S>=1 --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(filepath.Join(buildDir, "tmp"), 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(filepath.Join(buildDir, "tmp"), w.name+"-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	o := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, dir: dir}
	fmt.Fprintf(stderr, "perfbench: workload %s seed %d seconds %d trace %d GOMAXPROCS %d\n",
		w.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))

	var res *result
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
		rec := newRecorder()
		res, err = w.runTraced(o, rec)
		if err == nil {
			err = writeSpans(rec, w.name, *seed)
		}
	} else {
		res, err = w.run(o)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := res.report(stderr, w.name, defs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if res.failed > 0 {
		return 1
	}
	return 0
}

// writeSpans writes the run's spans, one JSON object a line.
func writeSpans(rec *recorder, workload string, seed int64) error {
	dir := filepath.Join(buildDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range rec.snapshot() {
		if err := enc.Encode(s); err != nil {
			return errors.Join(err, f.Close())
		}
	}
	return errors.Join(bw.Flush(), f.Close())
}
