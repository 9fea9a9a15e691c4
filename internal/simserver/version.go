package simserver

import (
	"net/http"
	"runtime"
	"runtime/debug"
	"time"
)

// This file is the build-identity corner of the API: GET /v1/version
// reports what binary is serving (module version, VCS revision when the
// build recorded one, Go toolchain, process start time and uptime).

// versionView is the GET /v1/version response.
type versionView struct {
	Version       string  `json:"version"`
	Revision      string  `json:"revision,omitempty"`
	GoVersion     string  `json:"go_version"`
	StartTime     string  `json:"start_time"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// moduleVersion extracts the main module's version and VCS revision from
// the build info baked into the binary. Test binaries and plain `go run`
// builds report "(devel)" with no revision.
func moduleVersion() (version, revision string) {
	version = "(devel)"
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return version, ""
	}
	if bi.Main.Version != "" {
		version = bi.Main.Version
	}
	for _, kv := range bi.Settings {
		if kv.Key == "vcs.revision" {
			revision = kv.Value
		}
	}
	return version, revision
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	version, revision := moduleVersion()
	writeJSON(w, http.StatusOK, versionView{
		Version:       version,
		Revision:      revision,
		GoVersion:     runtime.Version(),
		StartTime:     s.started.UTC().Format(time.RFC3339),
		UptimeSeconds: time.Since(s.started).Seconds(),
	})
}
