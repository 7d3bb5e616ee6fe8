// Command optcc-bench regenerates the paper's tables and figures. Each
// experiment prints a text table; -exp all regenerates everything (the
// content of EXPERIMENTS.md's measured sections). Performance of the
// executable stack is measured by the benchmark/ module instead
// (bash benchmark/run.sh).
//
// Examples:
//
//	optcc-bench -exp table2
//	optcc-bench -exp fig3 -quick
//	optcc-bench -exp all -out results.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all or one of "+fmt.Sprint(experiments.Names()))
	quick := flag.Bool("quick", false, "use short training runs (smoke test)")
	out := flag.String("out", "", "also write results to this file")
	flag.Parse()

	opts := experiments.DefaultOptions()
	if *quick {
		opts = experiments.QuickOptions()
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "optcc-bench:", err)
			os.Exit(1)
		}
		// Close explicitly and check: an unflushed results file must not
		// exit 0.
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "optcc-bench:", err)
				os.Exit(1)
			}
		}()
		w = io.MultiWriter(os.Stdout, f)
	}

	names := experiments.Names()
	if *exp != "all" {
		if experiments.Registry[*exp] == nil {
			fmt.Fprintf(os.Stderr, "optcc-bench: unknown experiment %q (have %v)\n", *exp, names)
			os.Exit(1)
		}
		names = []string{*exp}
	}
	for _, name := range names {
		start := time.Now()
		r, err := experiments.Registry[name](opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "optcc-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "### %s (%.1fs)\n\n%s\n", name, time.Since(start).Seconds(), r.Render())
	}
}
