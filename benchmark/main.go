// Command benchmark is the repository's one end-to-end benchmark: seven
// named workloads that drive the whole stack from outside through its
// public functions, each reported as a handful of end-to-end metrics with
// regression bounds and, from a separate traced pass, the per-layer metrics
// that attribute them. benchmark/README.md describes every workload and
// metric; BENCHMARK.json at the repository root is the same registry in the
// benchmark driver's schema.
//
//	bash benchmark/run.sh --workload train-pp-cbfesc --seed 1 --seconds 10 --trace 0
//	    one pass of one workload; the last stdout line is the result object
//	go run -C benchmark . -out results.json [-runs 5] [-trace-out trace.json]
//	    every workload, untraced then traced, as a results file
//	go run -C benchmark . -compare a.json b.json
//	    verdict per (workload, metric) against the bounds in BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	workloadName := flag.String("workload", "", "run one pass of this workload and print its result object (driver mode)")
	seed := flag.Int64("seed", 1, "workload seed: every input is generated from it")
	seconds := flag.Float64("seconds", runSeconds, "how long one pass measures")
	trace := flag.Int("trace", 0, "driver mode: 0 = tracing off, end-to-end metrics; 1 = traced pass, per-layer metrics")
	runs := flag.Int("runs", 1, "all-workloads mode: passes per workload, run i on seed+i")
	out := flag.String("out", "", "all-workloads mode: write the results file here")
	traceOut := flag.String("trace-out", "", "write the traced pass's spans here as a Chrome trace")
	compare := flag.Bool("compare", false, "compare two results files: -compare a.json b.json")
	describeFlag := flag.Bool("describe", false, "print the workload and metric tables")
	emitSpec := flag.Bool("emit-spec", false, "print BENCHMARK.json as the registry defines it")
	flag.Parse()

	switch {
	case *describeFlag:
		describe(os.Stdout)
		return 0
	case *emitSpec:
		if err := writeSpec(os.Stdout); err != nil {
			return fail(err)
		}
		return 0
	case *compare:
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two results files"))
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if *seconds <= 0 || *runs < 1 || (*trace != 0 && *trace != 1) {
		return fail(fmt.Errorf("need -seconds > 0, -runs ≥ 1 and -trace 0 or 1"))
	}
	spec, err := loadSpec()
	if err != nil {
		return fail(err)
	}
	if err := spec.validate(); err != nil {
		return fail(fmt.Errorf("BENCHMARK.json: %w", err))
	}

	// Socket files live under the build directory, inside the checkout.
	scratch := filepath.Join(".bench_build", fmt.Sprintf("run%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(scratch)
	env := runEnv{seed: *seed, seconds: *seconds, scratch: scratch}

	if *workloadName != "" {
		return driverPass(spec, *workloadName, env, *trace == 1, *traceOut)
	}
	return allWorkloads(spec, env, *runs, *out, *traceOut)
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 1
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// driverResult is the object the benchmark driver reads from the last line
// of standard output.
type driverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverPass runs one pass of one workload. With tracing off the result
// carries every end-to-end metric; with tracing on every per-layer metric,
// reading 0 where the workload never enters that layer.
func driverPass(spec benchSpec, name string, env runEnv, traced bool, traceOut string) int {
	w, ok := findWorkload(name)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", name))
	}
	pass := w.run
	if traced {
		pass = w.trace
	}
	res, err := pass(env)
	if err != nil {
		return fail(fmt.Errorf("%s: %w", name, err))
	}
	if traceOut != "" {
		if err := writeTraceFile(traceOut, name, res.tracks); err != nil {
			return fail(err)
		}
	}
	dr := driverResult{
		Correct:   res.correct(),
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]driverMetric{},
	}
	if traced {
		for _, m := range spec.PerLayer {
			dr.Metrics[m.Name] = driverMetric{res.metrics[m.Name], m.Unit}
		}
	} else {
		for _, m := range spec.EndToEnd {
			v, ok := res.metrics[m.Name]
			if !ok {
				return fail(fmt.Errorf("%s reported no %s", name, m.Name))
			}
			dr.Metrics[m.Name] = driverMetric{v, m.Unit}
		}
	}
	printPass(os.Stderr, name, res)
	line, err := json.Marshal(dr)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if !dr.Correct {
		return 1
	}
	return 0
}

// printPass lists a pass's checks and every metric by name with its unit.
func printPass(w io.Writer, name string, res *passResult) {
	fmt.Fprintf(w, "%s: attempted %d, failed %d\n", name, res.attempted, res.failed)
	for _, c := range res.checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "  check %s %s %s\n", verdict, c.Name, c.Detail)
	}
	units := metricUnits()
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-38s %16.6g %-6s (n=%d)\n", n, res.metrics[n], units[n], res.samples[n])
	}
}

func metricUnits() map[string]string {
	units := map[string]string{}
	for _, m := range endToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range perLayer {
		units[m.Name] = m.Unit
	}
	return units
}

func writeTraceFile(path, process string, tracks []traceTrack) error {
	if len(tracks) == 0 {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, "benchmark/"+process, tracks); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracePathFor derives one trace file per workload from the -trace-out path.
func tracePathFor(traceOut, workload string) string {
	ext := filepath.Ext(traceOut)
	return strings.TrimSuffix(traceOut, ext) + "." + workload + ext
}
