package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// tracedSecondsShare is the traced pass's length in all-workloads mode, as
// a share of the untraced pass's.
const tracedSecondsShare = 0.25

// resultsFile is what all-workloads mode writes: one set of runs of every
// workload on one host and commit.
type resultsFile struct {
	Host      hostInfo         `json:"host"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Runs      int              `json:"runs"`
	Workloads []workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name      string `json:"name"`
	Correct   bool   `json:"correct"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	// ErrorRatio is failed ÷ attempted over every pass; it must be 0.
	ErrorRatio float64                 `json:"error_ratio"`
	Checks     []check                 `json:"checks"`
	EndToEnd   map[string]metricResult `json:"end_to_end"`
	PerLayer   map[string]metricResult `json:"per_layer"`
}

// metricResult holds one metric's value from every run of the set.
type metricResult struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	// Spread is the runs' inter-quartile distance as a share of their
	// median; absent below two runs.
	Spread *float64 `json:"spread,omitempty"`
	// Samples is the number of timed samples behind each run's value.
	Samples []int `json:"samples"`
}

func (m *metricResult) add(v float64, samples int) {
	m.Values = append(m.Values, v)
	m.Samples = append(m.Samples, samples)
	m.Median = median(m.Values)
	if s, ok := spreadShare(m.Values); ok {
		m.Spread = &s
	} else {
		m.Spread = nil
	}
}

// allWorkloads runs every workload, untraced then traced, runs times.
func allWorkloads(spec benchSpec, env runEnv, runs int, out, traceOut string) int {
	file := resultsFile{Host: readHost(), Seed: env.seed, Seconds: env.seconds, Runs: runs}
	units := metricUnits()
	known := map[string]bool{}
	for _, m := range spec.EndToEnd {
		known[m.Name] = true
	}
	for _, m := range spec.PerLayer {
		known[m.Name] = true
	}
	status := 0
	for _, w := range workloads() {
		wr := workloadResult{Name: w.name, Correct: true,
			EndToEnd: map[string]metricResult{}, PerLayer: map[string]metricResult{}}
		for i := 0; i < runs; i++ {
			e := env
			e.seed = env.seed + int64(i)
			plain, err := w.run(e)
			if err != nil {
				return fail(fmt.Errorf("%s: %w", w.name, err))
			}
			te := e
			te.seconds = max(2, tracedSecondsShare*e.seconds)
			traced, err := w.trace(te)
			if err != nil {
				return fail(fmt.Errorf("%s (traced): %w", w.name, err))
			}
			for _, pass := range []struct {
				res  *passResult
				into map[string]metricResult
			}{{plain, wr.EndToEnd}, {traced, wr.PerLayer}} {
				printPass(os.Stdout, w.name, pass.res)
				wr.Attempted += pass.res.attempted
				wr.Failed += pass.res.failed
				wr.Correct = wr.Correct && pass.res.correct()
				wr.Checks = append(wr.Checks, pass.res.checks...)
				for name, v := range pass.res.metrics {
					if !known[name] {
						return fail(fmt.Errorf("%s reported %q, which BENCHMARK.json does not define", w.name, name))
					}
					m := pass.into[name]
					m.Unit = units[name]
					m.add(v, pass.res.samples[name])
					pass.into[name] = m
				}
			}
			if traceOut != "" && i == 0 {
				if err := writeTraceFile(tracePathFor(traceOut, w.name), w.name, traced.tracks); err != nil {
					return fail(err)
				}
			}
		}
		wr.ErrorRatio = float64(wr.Failed) / float64(wr.Attempted)
		if !wr.Correct {
			status = 1
		}
		file.Workloads = append(file.Workloads, wr)
	}
	if file.Host.Degraded {
		fmt.Println("note: GOMAXPROCS=1 — results are marked degraded; overlap and pipelining cannot show")
	}
	if out != "" {
		raw, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	return status
}

func readResults(path string) (resultsFile, error) {
	var f resultsFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// Verdicts of one (workload, metric) comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	verdictChanged    = "changed" // an exact value differs
)

// judge compares a metric's base and new sets against its bound: regressed
// when the new median is worse than the base's by more than the bound,
// unresolved when either set's own spread exceeds the bound (the sets
// cannot tell a change of that size from noise), ok otherwise.
func judge(base, cur metricResult, better string, bound float64) (ratio float64, verdict string) {
	if base.Median != 0 {
		ratio = cur.Median / base.Median
	}
	for _, s := range []*float64{base.Spread, cur.Spread} {
		if s != nil && *s > bound {
			return ratio, verdictUnresolved
		}
	}
	worse := ratio - 1
	if better == "higher" {
		worse = 1 - ratio
	}
	if base.Median == 0 || worse > bound {
		return ratio, verdictRegressed
	}
	return ratio, verdictOK
}

// compareFiles prints, per workload and metric, the new median as a ratio
// of the base median with its base, and the verdict. Any verdict but ok is
// a breach and makes the exit code non-zero.
func compareFiles(w io.Writer, basePath, curPath string) int {
	spec, err := loadSpec()
	if err != nil {
		return fail(err)
	}
	base, err := readResults(basePath)
	if err != nil {
		return fail(err)
	}
	cur, err := readResults(curPath)
	if err != nil {
		return fail(err)
	}
	breaches := 0
	if base.Host.Degraded != cur.Host.Degraded {
		fmt.Fprintf(w, "degraded mismatch: base degraded=%v, new degraded=%v — a GOMAXPROCS=1 set is not comparable with a multi-core one\n",
			base.Host.Degraded, cur.Host.Degraded)
		breaches++
	}
	fmt.Fprintf(w, "base %s (commit %s, %d runs)  new %s (commit %s, %d runs)\n",
		basePath, base.Host.Commit, base.Runs, curPath, cur.Host.Commit, cur.Runs)
	curBy := map[string]workloadResult{}
	for _, wr := range cur.Workloads {
		curBy[wr.Name] = wr
	}
	exact := map[string]bool{}
	for _, m := range perLayer {
		exact[m.Name] = m.Exact
	}
	for _, bw := range base.Workloads {
		cw, ok := curBy[bw.Name]
		if !ok {
			fmt.Fprintf(w, "%s: missing from %s\n", bw.Name, curPath)
			breaches++
			continue
		}
		fmt.Fprintf(w, "\n%s\n", bw.Name)
		if cw.Failed != 0 || !cw.Correct {
			fmt.Fprintf(w, "  error_ratio %.6g (%d failed of %d): must be 0\n", cw.ErrorRatio, cw.Failed, cw.Attempted)
			breaches++
		}
		for _, m := range spec.EndToEnd {
			b, c := bw.EndToEnd[m.Name], cw.EndToEnd[m.Name]
			ratio, verdict := judge(b, c, m.Better, m.Bound)
			fmt.Fprintf(w, "  %-34s %14.6g → %14.6g %-5s ×%.4f (bound %2.0f %%, %s better)  %s\n",
				m.Name, b.Median, c.Median, m.Unit, ratio, 100*m.Bound, m.Better, verdict)
			if verdict != verdictOK {
				breaches++
			}
		}
		for _, m := range spec.PerLayer {
			b, okB := bw.PerLayer[m.Name]
			c, okC := cw.PerLayer[m.Name]
			if !okB && !okC {
				continue
			}
			verdict := ""
			if exact[m.Name] && (okB != okC || b.Median != c.Median) {
				verdict = verdictChanged
				breaches++
			}
			ratio := 0.0
			if b.Median != 0 {
				ratio = c.Median / b.Median
			}
			fmt.Fprintf(w, "  %-34s %14.6g → %14.6g %-5s ×%.4f  %s\n", m.Name, b.Median, c.Median, m.Unit, ratio, verdict)
		}
	}
	if breaches > 0 {
		fmt.Fprintf(w, "\n%d breach(es)\n", breaches)
		return 1
	}
	fmt.Fprintln(w, "\nall metrics within their bounds")
	return 0
}
