// Command bgpbench is the repository's performance ledger: one campaign-scale
// benchmark over the whole path, generator to serving plane. All of it lives
// in internal/benchkit; see README.md beside this file. Run it through
// run.sh, from the root of a checkout:
//
//	run.sh                          every workload on the 214-day campaign, untraced then traced
//	run.sh --workload W --trace 0   one workload, the way the benchmark driver runs it
//	run.sh compare A.json B.json    two sets of runs against the bounds in BENCHMARK.json
//	run.sh manifest                 BENCHMARK.json, generated from the metric tables
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"instability/internal/benchkit"
)

// Everything a run writes stays under buildDir in the working directory,
// which run.sh also gives the Go toolchain and .gitignore names.
const (
	buildDir  = ".bench_build"
	traceFile = "bench-trace.json"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compare(os.Args[2:]))
		case "manifest":
			b, err := benchkit.ManifestJSON()
			if err != nil {
				fatal(err)
			}
			os.Stdout.Write(b)
			return
		}
	}
	var (
		workload = flag.String("workload", "", "run only this workload (the driver's mode); empty runs all seven, untraced then traced")
		seed     = flag.Int64("seed", 1996, "seed of every query list, request list and shuffle")
		seconds  = flag.Float64("seconds", 0, "bound each workload's measurement by this much wall time; 0 runs the fixed pass counts")
		trace    = flag.Int("trace", 0, "with -workload: 1 runs traced and prints the per-layer metrics")
		out      = flag.String("out", "", "append the runs to this JSON document, for `bgpbench compare`")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fatal(err)
	}
	opts := benchkit.Options{Seed: *seed, Seconds: *seconds, Trace: *trace != 0, TmpDir: dir, Log: os.Stderr}
	traceOut := filepath.Join(buildDir, traceFile)
	rec := benchkit.NewRunRecord()
	var runs []*benchkit.Result
	if *workload == "" {
		rec.Print(os.Stdout)
		runs, err = benchkit.RunAll(opts, traceOut)
		benchkit.PrintResults(os.Stdout, runs)
	} else {
		rec.Print(os.Stderr)
		var res *benchkit.Result
		if res, err = benchkit.RunWorkload(opts, *workload, traceOut); err == nil {
			runs = append(runs, res)
			benchkit.PrintResults(os.Stderr, runs)
		}
	}
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := benchkit.AppendDoc(*out, rec, runs); err != nil {
			fatal(err)
		}
	}
	correct := true
	for _, res := range runs {
		correct = correct && res.Correct
	}
	if *workload != "" {
		line, err := benchkit.DriverLine(runs[0])
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
	}
	if !correct {
		fmt.Fprintln(os.Stderr, "bgpbench: outputs did not match the reference")
		os.Exit(1)
	}
}

// compare holds two documents written with -out against the bounds in the
// BENCHMARK.json of the working directory.
func compare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bgpbench compare A.json B.json")
		return 2
	}
	regressed, err := benchkit.Compare(os.Stdout, "BENCHMARK.json", args[0], args[1])
	if err != nil {
		fatal(err)
	}
	if regressed {
		return 1
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bgpbench:", err)
	os.Exit(1)
}
