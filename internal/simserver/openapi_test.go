package simserver

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// specPath is the committed API contract this server must match.
const specPath = "../../api/openapi.yaml"

// loadSpecOps extracts "METHOD /path" operations from api/openapi.yaml.
// It relies on the formatting contract stated at the top of the spec
// (path items 2-space-indented under `paths:`, operations their
// 4-space-indented method keys) rather than a YAML dependency — the
// module is stdlib-only by design.
func loadSpecOps(t *testing.T) map[string]bool {
	t.Helper()
	f, err := os.Open(filepath.FromSlash(specPath))
	if err != nil {
		t.Fatalf("open spec: %v", err)
	}
	defer f.Close()

	methods := map[string]string{
		"get:": "GET", "post:": "POST", "put:": "PUT",
		"delete:": "DELETE", "patch:": "PATCH", "head:": "HEAD",
	}
	ops := make(map[string]bool)
	inPaths := false
	curPath := ""
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		indent := len(line) - len(strings.TrimLeft(line, " "))
		switch {
		case indent == 0:
			inPaths = line == "paths:"
		case !inPaths:
		case indent == 2 && strings.HasPrefix(trimmed, "/") && strings.HasSuffix(trimmed, ":"):
			curPath = strings.TrimSuffix(trimmed, ":")
		case indent == 4 && curPath != "":
			if m, ok := methods[trimmed]; ok {
				ops[m+" "+curPath] = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read spec: %v", err)
	}
	if len(ops) == 0 {
		t.Fatalf("no operations parsed from %s — formatting contract broken?", specPath)
	}
	return ops
}

// TestOpenAPISpecMatchesRoutes is the spec-drift gate: every route the
// server registers must have an operation in api/openapi.yaml, and every
// spec operation must have a route. Go 1.22 mux patterns and OpenAPI
// path templates share the {id} placeholder syntax, so patterns compare
// verbatim.
func TestOpenAPISpecMatchesRoutes(t *testing.T) {
	spec := loadSpecOps(t)

	s, _ := newTestServer(t, Options{Workers: 1})
	served := make(map[string]bool)
	for _, rt := range s.routes() {
		served[rt.method+" "+rt.pattern] = true
	}

	var missing, stale []string
	for op := range served {
		if !spec[op] {
			missing = append(missing, op)
		}
	}
	for op := range spec {
		if !served[op] {
			stale = append(stale, op)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	for _, op := range missing {
		t.Errorf("route %q is served but absent from %s — add the operation to the spec", op, specPath)
	}
	for _, op := range stale {
		t.Errorf("operation %q is in %s but not served — remove it or register the route", op, specPath)
	}
	if len(served) != len(spec) {
		t.Logf("server routes: %d, spec operations: %d", len(served), len(spec))
	}
}

// TestOpenAPISpecLint is a dependency-free sanity lint of the committed
// spec: the fields the drift gate and clients rely on must be present.
func TestOpenAPISpecLint(t *testing.T) {
	raw, err := os.ReadFile(filepath.FromSlash(specPath))
	if err != nil {
		t.Fatalf("read spec: %v", err)
	}
	text := string(raw)
	for _, want := range []string{
		"openapi: 3.1.0",
		"paths:",
		"components:",
		"ErrorEnvelope:",
		"Retry-After:",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("spec is missing %q", want)
		}
	}
	// Every stable error code the server can emit must be declared in the
	// envelope's enum.
	for _, code := range []string{
		codeBadRequest, codeNotFound, codeConflict, codeQueueFull,
		codeShuttingDown, codeCancelTimeout, codePauseTimeout, codeInternal,
	} {
		if !strings.Contains(text, fmt.Sprintf("- %s", code)) {
			t.Errorf("spec error-code enum is missing %q", code)
		}
	}
}
