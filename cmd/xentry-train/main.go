// Command xentry-train reproduces the paper's Section III-B classifier
// study: it collects training and testing datasets from fault-injection and
// fault-free runs, trains both the plain decision tree and the random tree
// (the paper's choice), and reports their accuracy, coverage and
// false-positive rate on the held-out set. With -print-tree it also dumps
// the learned rule tree (the paper's Fig. 6).
//
// Usage:
//
//	xentry-train [-injections N] [-fault-free N] [-seed S] [-print-tree]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"xentry/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command body: it returns the process exit status, 2 for a
// usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xentry-train", flag.ContinueOnError)
	fs.SetOutput(stderr)
	injections := fs.Int("injections", 12000, "total training injections across benchmarks")
	faultFree := fs.Int("fault-free", 6, "fault-free runs per benchmark")
	seed := fs.Int64("seed", 20140901, "deterministic seed")
	printTree := fs.Bool("print-tree", false, "dump the learned random tree (Fig. 6)")
	sweeps := fs.Bool("sweeps", false, "run the feature/depth/size sweeps and the naive Bayes baseline the paper omitted")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *injections < 0 || *faultFree < 0 {
		fmt.Fprintf(stderr, "xentry-train: -injections and -fault-free must be non-negative (got %d, %d)\n",
			*injections, *faultFree)
		fs.Usage()
		return 2
	}

	sc := experiments.DefaultScale()
	sc.TrainInjections = *injections
	sc.TrainFaultFreeRuns = *faultFree
	sc.Seed = *seed
	res, err := experiments.Train(sc)
	if err != nil {
		fmt.Fprintln(stderr, "xentry-train:", err)
		return 1
	}
	fmt.Fprint(stdout, res.Render())
	if *printTree {
		fmt.Fprintln(stdout, "\nFig. 6 — learned tree (random tree rules):")
		fmt.Fprint(stdout, res.RandomTree.String())
	}
	if *sweeps {
		sw, err := experiments.Sweeps(sc)
		if err != nil {
			fmt.Fprintln(stderr, "xentry-train:", err)
			return 1
		}
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, sw.Render())
	}
	return 0
}
