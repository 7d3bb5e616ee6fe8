// Command optcc-gate validates a Chrome trace-event JSON file
// (optcc-train -trace / optcc-sim -trace output, or the two merged)
// against the exporters' invariants and prints its event summary:
//
//	optcc-gate -validate-trace trace.json
//
// CI runs it on the archived trace artifacts, so a file that would not
// load in Perfetto fails the build. Performance is measured by the
// benchmark/ module (bash benchmark/run.sh), not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/obs"
)

// runValidateTrace checks that the trace file at path satisfies the
// exporters' invariants and holds at least one event, and prints its
// summary.
func runValidateTrace(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	check, err := obs.ValidateTrace(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if check.Events == 0 {
		return fmt.Errorf("%s: trace holds no events", path)
	}
	fmt.Fprintf(w, "trace %s OK: %d events, %d metadata records, categories: %s\n",
		filepath.Base(path), check.Events, check.Metas, strings.Join(check.Categories, ", "))
	return nil
}

func main() {
	validateTrace := flag.String("validate-trace", "", "Chrome trace-event JSON file to validate (optcc-train/optcc-sim -trace output)")
	flag.Parse()

	if *validateTrace == "" {
		fmt.Fprintln(os.Stderr, "optcc-gate: -validate-trace is required (see -h)")
		os.Exit(1)
	}
	if err := runValidateTrace(os.Stdout, *validateTrace); err != nil {
		fmt.Fprintln(os.Stderr, "optcc-gate:", err)
		os.Exit(1)
	}
}
