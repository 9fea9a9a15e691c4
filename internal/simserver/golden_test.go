package simserver

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"fbdsim/internal/config"
	"fbdsim/internal/fidelity"
	"fbdsim/internal/system"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenRun returns fixed, fully deterministic results so the rendered
// API responses are byte-stable. Estimate tiers get the same counters plus
// the Estimate block a sampled/analytic run would carry.
func goldenRun(ctx context.Context, tier fidelity.Tier, cfg config.Config, benchmarks []string, opts system.Options) (system.Results, error) {
	res := system.Results{
		Benchmarks: benchmarks,
		Cores:      len(benchmarks),
		IPC:        []float64{1.25},
		Cycles:     2_000_000,
	}
	if tier != "" {
		res.Estimate = &system.EstimateInfo{
			Tier:            string(tier),
			TotalIPC:        1.25,
			CI95:            0.02,
			Windows:         12,
			DetailedInsts:   30_000,
			FunctionalInsts: 170_000,
		}
	}
	return res, nil
}

// normalize re-indents raw JSON after overwriting the named volatile
// top-level fields (wall times and derived rates vary run to run) with
// fixed sentinels, so the remainder of the response is pinned exactly.
func normalize(t *testing.T, raw []byte, volatileFields ...string) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("response is not a JSON object: %v\n%s", err, raw)
	}
	for _, f := range volatileFields {
		if _, ok := m[f]; !ok {
			t.Errorf("expected volatile field %q missing from response", f)
		}
		m[f] = "<volatile>"
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// checkGolden compares got against testdata/<name>, rewriting the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -run Golden -update ./internal/simserver/): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("response differs from %s.\nThis test pins the public JSON shape: if the change is intentional,\nre-run with -update and review the diff.\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

func goldenBody(t *testing.T, ts *httptest.Server, path string) []byte {
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
	return raw
}

// TestGoldenJobView pins the public JSON shape of a completed job
// response (GET /v1/jobs/{id} with embedded results).
func TestGoldenJobView(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Run: goldenRun})
	_, v, _ := postJob(t, ts, `{"benchmarks": ["swim"], "seed": 42, "max_insts": 10000}`)
	waitState(t, ts, v.ID, StateDone)
	raw := goldenBody(t, ts, "/v1/jobs/"+v.ID)
	checkGolden(t, "jobview.golden.json", normalize(t, raw, "wall_ms", "sim_cycles_per_sec"))
}

// TestGoldenSampledJobView pins the JSON shape of a sampled job: the
// fidelity field on the view, the results' Estimate block (tier, CI,
// window accounting) and the headline ipc_ci95.
func TestGoldenSampledJobView(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Run: goldenRun})
	_, v, _ := postJob(t, ts, `{"benchmarks": ["swim"], "seed": 42, "max_insts": 10000, "fidelity": "sampled"}`)
	waitState(t, ts, v.ID, StateDone)
	raw := goldenBody(t, ts, "/v1/jobs/"+v.ID)
	checkGolden(t, "jobview_sampled.golden.json", normalize(t, raw, "wall_ms", "sim_cycles_per_sec"))
}

// TestGoldenErrorEnvelope pins the error envelope itself.
func TestGoldenErrorEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Run: goldenRun})
	raw := goldenBody(t, ts, "/v1/jobs/job-999")
	checkGolden(t, "error.golden.json", raw)
}

// TestGoldenReadyz pins the structured /readyz document — probes and
// operators parse it, so shape drift must be a conscious decision.
func TestGoldenReadyz(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 8, Run: goldenRun})
	raw := goldenBody(t, ts, "/readyz")
	checkGolden(t, "readyz.golden.json", raw)
}
