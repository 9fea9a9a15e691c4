package config

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// brokenWriter fails every write so Save's error path runs.
type brokenWriter struct{}

func (brokenWriter) Write([]byte) (int, error) { return 0, errors.New("pipe closed") }

func TestSavePropagatesWriteError(t *testing.T) {
	c := Default()
	err := c.Save(brokenWriter{})
	if err == nil {
		t.Fatal("Save to a failing writer must error")
	}
	if !strings.Contains(err.Error(), "config:") {
		t.Errorf("error %q lacks package prefix", err)
	}
}

func TestSaveFileBadPath(t *testing.T) {
	c := Default()
	if err := c.SaveFile(filepath.Join(t.TempDir(), "no", "such", "dir", "cfg.json")); err == nil {
		t.Error("SaveFile into a missing directory must error")
	}
}

func TestSaveFileOverDirectory(t *testing.T) {
	c := Default()
	if err := c.SaveFile(t.TempDir()); err == nil {
		t.Error("SaveFile onto a directory must error")
	}
}

func TestLoadTruncatedJSON(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"Seed": 7,`)); err == nil {
		t.Error("truncated JSON must be rejected")
	}
}

func TestLoadWrongFieldType(t *testing.T) {
	_, err := Load(strings.NewReader(`{"Seed": "not a number"}`))
	if err == nil {
		t.Fatal("mistyped field must be rejected")
	}
	if !strings.Contains(err.Error(), "decoding") {
		t.Errorf("error %q should identify the decode stage", err)
	}
}

func TestLoadNestedUnknownField(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"Mem": {"Typo": 1}}`)); err == nil {
		t.Error("unknown nested fields must be rejected")
	}
}

// TestLoadDeletedFieldsFail: fields the model never read are gone, and a
// file that still names one fails loudly instead of being half-honoured.
func TestLoadDeletedFieldsFail(t *testing.T) {
	for _, js := range []string{
		`{"CPU": {"PipelineDepth": 21}}`,
		`{"CPU": {"L1MSHRs": 32}}`,
		`{"Mem": {"TREFI": 7800000}}`,
		`{"Mem": {"TRFC": 127500}}`,
		`{"CPU": {"HWPrefetchStreams": 8}}`,
		`{"CPU": {"HWPrefetchDegree": 2}}`,
		`{"Trace": {"Epoch": 2000000}}`,
		`{"Trace": {"MaxEvents": 4096}}`,
	} {
		if _, err := Load(strings.NewReader(js)); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("%s: error %v, want an unknown-field error", js, err)
		}
	}
}

func TestLoadEmptyObjectIsDefaults(t *testing.T) {
	got, err := Load(strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if got != Default() {
		t.Error("empty object must load as the default configuration")
	}
}

func TestLoadFileUnreadable(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("root ignores file permissions")
	}
	path := filepath.Join(t.TempDir(), "cfg.json")
	c := Default()
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(path, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err == nil {
		t.Error("unreadable file must error")
	}
}

// TestRoundTripEveryPreset: each preset survives Save/Load byte-identically.
func TestRoundTripEveryPreset(t *testing.T) {
	presets := map[string]Config{
		"default": Default(),
		"ddr2":    DDR2Baseline(),
		"ap":      WithAMBPrefetch(Default()),
		"apfl":    WithFullLatencyHits(Default()),
		"ddr3":    WithDDR3(WithAMBPrefetch(Default())),
	}
	for name, orig := range presets {
		var buf strings.Builder
		if err := orig.Save(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := Load(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != orig {
			t.Errorf("%s: round trip changed the configuration", name)
		}
	}
}
