package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestValidateTrace accepts a trace written by obs.TraceEncoder and
// rejects a trace without events and a file that is not a trace.
func TestValidateTrace(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	enc := obs.NewTraceEncoder(1)
	enc.ProcessName("executed")
	tid := enc.Track("rank0")
	enc.Event("fwd", "compute", 0, 5, tid)
	enc.Event("bwd", "compute", 5, 7, tid)
	var buf bytes.Buffer
	if err := enc.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runValidateTrace(&out, write("good.json", buf.Bytes())); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	if got := out.String(); !strings.Contains(got, "2 events") || !strings.Contains(got, "compute") {
		t.Fatalf("summary %q lacks the event count or category", got)
	}

	empty := obs.NewTraceEncoder(1)
	empty.ProcessName("executed")
	empty.Track("rank0")
	buf.Reset()
	if err := empty.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"empty.json":     buf.Bytes(),
		"malformed.json": []byte(`[{"name": "fwd", "ph": "X"`),
	} {
		if err := runValidateTrace(&out, write(name, data)); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	if err := runValidateTrace(&out, filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}
