package sim

import (
	"fmt"
	"strings"
)

// Timeline renders an ASCII timing diagram of one iteration, one row per
// pipeline stage — the reproduction's version of the paper's Fig. 4.
// Forward compute prints as 'F', backward as 'B', idle as '.', and the
// tail communications (DP/EMB) as 'D'/'E' on the stages they occupy.
func Timeline(s Scenario, width int) (string, error) {
	it, err := buildIteration(s, nil)
	if err != nil {
		return "", err
	}
	makespan, err := it.g.Solve()
	if err != nil {
		return "", err
	}
	if width < 20 {
		width = 20
	}
	scale := float64(width) / makespan

	var b strings.Builder
	fmt.Fprintf(&b, "%s  %s  iteration=%.3fs  (1 col = %.0f ms)\n",
		s.Spec.Name, s.Cfg.Name(), makespan, makespan/float64(width)*1000)
	for st := 0; st < s.Map.PP; st++ {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		paint := func(start, finish float64, ch byte) {
			from := int(start * scale)
			to := int(finish * scale)
			if to >= width {
				to = width - 1
			}
			for i := from; i <= to && i < width; i++ {
				row[i] = ch
			}
		}
		for _, t := range it.g.ResourceTimeline(fmt.Sprintf("dev%d", st)) {
			ch := byte('F')
			if t.Label == LabelBwd {
				ch = 'B'
			}
			paint(t.Start(), t.Finish(), ch)
		}
		for i, t := range it.g.Tasks() {
			if t.Duration <= 0 {
				continue
			}
			switch m := it.meta[i]; {
			case m.kind == taskDP && m.stage == st:
				paint(t.Start(), t.Finish(), 'D')
			case m.kind == taskEmb && (st == 0 || st == s.Map.PP-1):
				paint(t.Start(), t.Finish(), 'E')
			}
		}
		fmt.Fprintf(&b, "dev%-2d |%s|\n", st, string(row))
	}
	return b.String(), nil
}

// BreakdownReport renders the Fig. 3 / Fig. 10 style breakdown as text:
// exposed time per component plus the residual (overlapped) compute.
func BreakdownReport(name string, r Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s iteration %7.3fs  (%.2f days)\n", name, r.IterationSec, r.Days)
	for _, l := range AllLabels {
		fmt.Fprintf(&b, "  %-12s exposed %7.3fs  (%5.1f%%)   busy %8.3fs\n",
			l, r.Exposed[l], r.Exposed[l]/r.IterationSec*100, r.Busy[l])
	}
	return b.String()
}
