package sim

import (
	"fmt"
	"io"

	"repro/internal/obs"
)

// Chrome trace-event export: one simulated iteration rendered as a JSON
// trace loadable in chrome://tracing or Perfetto, with one track per
// device, link, and NIC. This is the production-tooling counterpart of
// the Fig. 4 ASCII diagram. The record layout lives in internal/obs so
// the executed-run trace (obs.WriteRecorderTrace) shares the exact same
// encoder and track conventions; this file only maps the solved task
// graph onto it.

// PredictedTracePID is the pid the simulator's trace carries. Executed
// traces use obs.ExecutedTracePID, so a merged file shows the two as
// separate process groups.
const PredictedTracePID = 1

// WriteTrace simulates the scenario and writes the task timeline as a
// Chrome trace (JSON array) to w.
func WriteTrace(s Scenario, w io.Writer) error {
	g, err := BuildGraph(s, nil)
	if err != nil {
		return err
	}
	if _, err := g.Solve(); err != nil {
		return err
	}
	enc := obs.NewTraceEncoder(PredictedTracePID)
	// Deterministic track order: devices first, then links/NICs as they
	// appear in task insertion order.
	for st := 0; st < s.Map.PP; st++ {
		enc.Track(fmt.Sprintf("dev%d", st))
	}
	for _, t := range g.Tasks() {
		res := t.Resource
		if res == "" {
			res = "unbound"
		}
		if t.Duration <= 0 {
			continue
		}
		enc.Event(t.ID, t.Label, t.Start()*1e6, t.Duration*1e6, enc.Track(res))
	}
	return enc.Flush(w)
}
