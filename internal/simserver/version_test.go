package simserver

import (
	"encoding/json"
	"net/http"
	"sync/atomic"
	"testing"
)

// TestVersionAndBuildInfo: /v1/version reports the serving binary's build
// identity (module version, Go toolchain) and the process uptime.
func TestVersionAndBuildInfo(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	close(release)
	_, ts := newTestServer(t, Options{Workers: 1, Run: fakeRun(&calls, nil, release)})

	code, body, _ := getBody(t, ts.URL+"/v1/version")
	if code != http.StatusOK {
		t.Fatalf("/v1/version status = %d", code)
	}
	var ver map[string]any
	if err := json.Unmarshal([]byte(body), &ver); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"version", "go_version", "start_time", "uptime_seconds"} {
		if _, ok := ver[k]; !ok {
			t.Errorf("/v1/version missing %q: %s", k, body)
		}
	}
}
