package sim

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
)

// TestWriteTraceGolden pins the trace output byte-for-byte against a
// file generated before the encoder moved to internal/obs: the shared
// encoder must reproduce the simulator's historical record layout
// exactly (field order, meta interleaving, tid assignment, trailing
// newline), or existing Perfetto tooling and diffs silently shift.
func TestWriteTraceGolden(t *testing.T) {
	sc := PaperScenario(cluster.GPT25B, core.CBFESC())
	sc.Topo.Efficiency = 0.35
	var buf bytes.Buffer
	if err := WriteTrace(sc, &buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/trace_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("trace output drifted from golden (got %d bytes, want %d); regenerate testdata/trace_golden.json only if the format change is intentional",
			buf.Len(), len(want))
	}
}

func TestWriteTraceValidJSON(t *testing.T) {
	sc := PaperScenario(cluster.GPT25B, core.CBFESC())
	sc.Topo.Efficiency = eff(t)
	var buf bytes.Buffer
	if err := WriteTrace(sc, &buf); err != nil {
		t.Fatal(err)
	}
	var records []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &records); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var events, metas int
	cats := map[string]bool{}
	for _, r := range records {
		switch r["ph"] {
		case "X":
			events++
			if cat, ok := r["cat"].(string); ok {
				cats[cat] = true
			}
			if r["dur"].(float64) <= 0 {
				t.Fatal("zero-duration event emitted")
			}
		case "M":
			metas++
		}
	}
	if events < 100 {
		t.Fatalf("only %d events — expected a full iteration", events)
	}
	if metas < 4 {
		t.Fatalf("only %d track names", metas)
	}
	for _, want := range []string{LabelFwd, LabelBwd, LabelInterStage, LabelDP, LabelEmb} {
		if !cats[want] {
			t.Fatalf("trace missing category %s", want)
		}
	}
}
