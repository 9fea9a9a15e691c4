package stats

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	c.Add(-8000)
	if got := c.Value(); got != 0 {
		t.Errorf("after Add(-8000) = %d, want 0", got)
	}
}

func TestRegistryJSON(t *testing.T) {
	reg := &Registry{}
	jobs := reg.Counter("jobs")
	reg.Func("depth", func() any { return 3 })
	jobs.Add(5)

	var sb strings.Builder
	if err := reg.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &m); err != nil {
		t.Fatalf("output not JSON: %v\n%s", err, sb.String())
	}
	if m["jobs"].(float64) != 5 || m["depth"].(float64) != 3 {
		t.Errorf("rendered values wrong: %v", m)
	}

	snap := reg.Snapshot()
	if snap["jobs"].(int64) != 5 {
		t.Errorf("snapshot = %v", snap)
	}
}

func TestRegistryProm(t *testing.T) {
	reg := &Registry{}
	jobs := reg.Counter("jobs_done")
	jobs.Add(7)
	reg.Func("wall-ms.mean", func() any { return 1.5 }) // needs sanitizing
	reg.Func("ratio", func() any { return float64(0.25) })
	reg.Func("label", func() any { return "text" }) // non-numeric: skipped
	reg.Func("up", func() any { return true })

	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE jobs_done untyped\njobs_done 7\n",
		"# TYPE wall_ms_mean untyped\nwall_ms_mean 1.5\n",
		"ratio 0.25\n",
		"up 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "label") || strings.Contains(out, "text") {
		t.Errorf("non-numeric metric must be skipped:\n%s", out)
	}
	// Every sample line must match the exposition grammar loosely:
	// name SP value, with a sanitized name.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Fields(line)
		if len(parts) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
		if strings.ContainsAny(parts[0], "-. ") {
			t.Errorf("unsanitized metric name %q", parts[0])
		}
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"ok_name":    "ok_name",
		"has-dash":   "has_dash",
		"dots.too":   "dots_too",
		"0leading":   "_leading",
		"mixed:case": "mixed:case",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate metric name must panic")
		}
	}()
	reg := &Registry{}
	reg.Counter("x")
	reg.Counter("x")
}
