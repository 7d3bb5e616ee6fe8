package whatif

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/autotune"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(NewEngine(Options{}), ServerOptions{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func post(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestServePriceBitIdentical pins the full HTTP round trip against a
// direct evaluator: the served estimate must decode to the exact same
// sim.Estimate (JSON float64 encoding round-trips bit for bit).
func TestServePriceBitIdentical(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"grid":{"model":"2.5b"},"config":{"preset":"cbfesc"},"bucket_bytes":4194304}`

	ev, err := sim.NewEvaluator(sim.PaperScenario(cluster.GPT25B, core.Baseline()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ev.Price(core.CBFESC(), 4<<20)
	if err != nil {
		t.Fatal(err)
	}

	for round, wantCached := range []bool{false, true} {
		resp, raw := post(t, ts, "/v1/price", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", round, resp.StatusCode, raw)
		}
		var pr PriceResponse
		if err := json.Unmarshal(raw, &pr); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if pr.Cached != wantCached {
			t.Errorf("round %d: cached = %v, want %v", round, pr.Cached, wantCached)
		}
		if pr.Config != "CB+FE+SC" && pr.Config == "" {
			t.Errorf("round %d: empty config name", round)
		}
		if pr.Mapping != "TP8/DP4/PP4" {
			t.Errorf("round %d: mapping = %q", round, pr.Mapping)
		}
		if !reflect.DeepEqual(pr.Estimate, want) {
			t.Errorf("round %d: served estimate diverged from direct evaluator:\n got %+v\nwant %+v",
				round, pr.Estimate, want)
		}
	}
}

// TestServePriceDefaults pins that an empty body prices the paper
// default: baseline 2.5b on TP8/DP4/PP4.
func TestServePriceDefaults(t *testing.T) {
	_, ts := newTestServer(t)
	resp, raw := post(t, ts, "/v1/price", `{}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var pr PriceResponse
	if err := json.Unmarshal(raw, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Config != "Baseline" || pr.Mapping != "TP8/DP4/PP4" {
		t.Errorf("defaults resolved to config %q mapping %q", pr.Config, pr.Mapping)
	}
	if pr.Estimate.IterationSec <= 0 {
		t.Errorf("iteration_sec = %v, want > 0", pr.Estimate.IterationSec)
	}
}

// TestServePriceOverrides pins the pointer-field override semantics:
// only the named knob changes.
func TestServePriceOverrides(t *testing.T) {
	_, ts := newTestServer(t)
	resp, raw := post(t, ts, "/v1/price",
		`{"config":{"preset":"cbfesc","cb_rank":4}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var pr PriceResponse
	if err := json.Unmarshal(raw, &pr); err != nil {
		t.Fatal(err)
	}
	cfg := core.CBFESC()
	cfg.CBRank = 4
	ev, err := sim.NewEvaluator(sim.PaperScenario(cluster.GPT25B, core.Baseline()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ev.Price(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pr.Estimate, want) {
		t.Errorf("override estimate diverged:\n got %+v\nwant %+v", pr.Estimate, want)
	}
}

// TestServeBadRequests pins the 4xx surface: unknown model, unknown
// preset, unknown JSON field, invalid config, negative bucket budget,
// wrong method.
func TestServeBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name, body string
	}{
		{"unknown model", `{"grid":{"model":"13b"}}`},
		{"unknown preset", `{"config":{"preset":"warp"}}`},
		{"unknown field", `{"bucketbytes":1}`},
		{"bad compressor", `{"config":{"preset":"cbfesc","cb_alg":"no-such"}}`},
		{"negative bucket budget", `{"config":{"preset":"cbfesc"},"bucket_bytes":-1}`},
		{"malformed", `{`},
	}
	for _, tc := range cases {
		resp, raw := post(t, ts, "/v1/price", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, raw)
		}
		var er errorResponse
		if err := json.Unmarshal(raw, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body %q not a JSON error", tc.name, raw)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/price")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/price: status %d, want 405", resp.StatusCode)
	}
}

// TestServeMetricsAndHealth pins the observability endpoints: healthz
// is 200, /metrics lists the engine counters as text and as JSON.
func TestServeMetricsAndHealth(t *testing.T) {
	_, ts := newTestServer(t)
	post(t, ts, "/v1/price", `{}`)

	resp, _ := get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}

	resp, text := get(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("metrics status %d", resp.StatusCode)
	}
	if !strings.Contains(string(text), "whatif.requests") {
		t.Errorf("text metrics missing whatif.requests:\n%s", text)
	}

	_, js := get(t, ts, "/metrics?format=json")
	var metrics []struct {
		Name  string `json:"name"`
		Value int64  `json:"value"`
	}
	if err := json.Unmarshal(js, &metrics); err != nil {
		t.Fatalf("json metrics: %v\n%s", err, js)
	}
	found := false
	for _, m := range metrics {
		if m.Name == "whatif.requests" && m.Value >= 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("json metrics missing whatif.requests >= 1: %v", metrics)
	}
}

// TestServeAutotuneMatchesDirectSearch pins that the served table is
// bit-identical to autotune.Search run directly with the CLI defaults
// on the same scenario — the equivalence the CI smoke checks over a
// real socket against optcc-sim -autotune.
func TestServeAutotuneMatchesDirectSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("prices the default space (~thousands of candidates)")
	}
	_, ts := newTestServer(t)
	resp, raw := post(t, ts, "/v1/autotune", `{"grid":{"tp":8,"dp":4,"pp":2}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var ar AutotuneResponse
	if err := json.Unmarshal(raw, &ar); err != nil {
		t.Fatal(err)
	}

	sc := sim.PaperScenario(cluster.GPT25B, core.Baseline())
	sc.Map = cluster.Mapping{TP: 8, DP: 4, PP: 2}
	ev, err := sim.NewEvaluator(sc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := autotune.Search(ev, autotune.DefaultSpace(2), autotune.DefaultQualityModel(),
		autotune.Options{Seed: 1, ExhaustiveLimit: 4096, Top: 12})
	if err != nil {
		t.Fatal(err)
	}
	if ar.Table != want.Table() {
		t.Errorf("served table diverged from direct search:\n got:\n%s\nwant:\n%s", ar.Table, want.Table())
	}
	if ar.WinnerKey != want.Winner.Candidate.Key() {
		t.Errorf("winner key = %q, want %q", ar.WinnerKey, want.Winner.Candidate.Key())
	}
}
