// Command bench is the repository's end-to-end benchmark: four workloads,
// seven end-to-end metrics over cold timed passes, and a per-layer budget
// from a staged, traced replay. README.md has the workload table and how
// the layer metrics map onto the end-to-end ones; BENCHMARK.json at the
// repository root declares the metrics and their regression bounds.
//
//	go run -C bench . -seed 2004                      every workload, timed and traced; writes bench/out/results.json
//	go run -C bench . --workload W --seed N --seconds S --trace 0|1   one run, result line last
//	go run -C bench . compare A.json B.json           apply BENCHMARK.json's bounds to two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if len(os.Args) != 4 {
			fatal(fmt.Errorf("usage: bench compare A.json B.json"))
		}
		ok, err := compare(os.Stdout, os.Args[2], os.Args[3])
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	name := flag.String("workload", "", "run only this workload and end with the one-line JSON result (default: the whole suite)")
	seed := flag.Uint64("seed", 2004, "workload seed; 2004 is also checked against golden.json")
	seconds := flag.Float64("seconds", 28, "a timed run takes cold passes for as long as another fits into this, and at least 5")
	traceOn := flag.Int("trace", 0, "with -workload: 0 for the timed run's end-to-end metrics, 1 for the traced run's per-layer metrics")
	childMode := flag.String("child", "", "internal: run one pass (pass) or the traced run (traced) in this process and print its JSON")
	pass := flag.Int("pass", 0, "internal: which pass a pass child is")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	if *name == "" {
		rf, err := suite(os.Stdout, *seed, *seconds)
		if err != nil {
			fatal(err)
		}
		for _, w := range rf.Workloads {
			if !w.Correct {
				fatal(fmt.Errorf("%s: %d of %d sessions failed", w.Name, w.Failed, w.Attempted))
			}
		}
		return
	}

	w, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	switch *childMode {
	case "pass":
		pr, err := runPass(w, stdSize, *seed, *pass)
		if err != nil {
			fatal(err)
		}
		printJSON(pr)
		return
	case "traced":
		tr, err := runTraced(w, stdSize, *seed)
		if err != nil {
			fatal(err)
		}
		printJSON(tr)
		return
	case "":
	default:
		fatal(fmt.Errorf("unknown -child mode %q", *childMode))
	}

	var res *workloadResult
	if *traceOn == 1 {
		res, err = tracedRun(w, *seed)
	} else {
		res, err = timedRun(w, *seed, *seconds)
	}
	if err != nil {
		fatal(err)
	}
	res.print(os.Stdout)
	printJSON(res.line())
	if !res.Correct {
		os.Exit(1)
	}
}

func printJSON(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", data)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
