package textplot

import (
	"bytes"

	"strings"
	"testing"
)

func TestBarChartBasic(t *testing.T) {
	var buf bytes.Buffer
	BarChart(&buf, "speedups", []Bar{
		{"FBD", 1.0},
		{"FBD-AP", 1.16},
	}, 40, 1.0)
	out := buf.String()
	if !strings.Contains(out, "speedups") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "FBD-AP") || !strings.Contains(out, "1.160") {
		t.Errorf("missing bar data:\n%s", out)
	}
	// The longer bar must have more # characters.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if strings.Count(lines[2], "#") <= strings.Count(lines[1], "#") {
		t.Errorf("bar lengths not ordered:\n%s", out)
	}
	// Baseline marker appears.
	if !strings.ContainsAny(out, "|+") {
		t.Error("baseline marker missing")
	}
}

func TestBarChartEmpty(t *testing.T) {
	var buf bytes.Buffer
	BarChart(&buf, "t", nil, 40, 0)
	if !strings.Contains(buf.String(), "no data") {
		t.Error("empty chart must say so")
	}
}

func TestBarChartClamping(t *testing.T) {
	var buf bytes.Buffer
	BarChart(&buf, "t", []Bar{{"neg", -1}, {"big", 100}}, 20, 0)
	out := buf.String()
	for _, line := range strings.Split(out, "\n") {
		if strings.Count(line, "#") > 20 {
			t.Errorf("bar exceeds width: %q", line)
		}
	}
}

func TestScatterBasic(t *testing.T) {
	var buf bytes.Buffer
	Scatter(&buf, "bw vs lat", "GB/s", "ns", []Point{
		{X: 5, Y: 60, Glyph: 'd'},
		{X: 15, Y: 250, Glyph: 'f'},
		{X: 10, Y: 120, Glyph: 'a'},
	}, 40, 10)
	out := buf.String()
	for _, want := range []string{"bw vs lat", "GB/s", "ns", "d", "f", "a"} {
		if !strings.Contains(out, want) {
			t.Errorf("scatter missing %q:\n%s", want, out)
		}
	}
	// Axis extremes appear.
	if !strings.Contains(out, "60.0") || !strings.Contains(out, "250.0") {
		t.Errorf("axis labels missing:\n%s", out)
	}
}

func TestScatterOverlapMarker(t *testing.T) {
	var buf bytes.Buffer
	Scatter(&buf, "t", "x", "y", []Point{
		{X: 1, Y: 1, Glyph: 'd'},
		{X: 1, Y: 1, Glyph: 'f'},
		{X: 2, Y: 2, Glyph: 'f'},
	}, 20, 8)
	if !strings.Contains(buf.String(), "@") {
		t.Error("overlapping distinct glyphs should render @")
	}
}

func TestScatterSinglePoint(t *testing.T) {
	var buf bytes.Buffer
	Scatter(&buf, "t", "x", "y", []Point{{X: 3, Y: 4}}, 20, 8)
	if !strings.Contains(buf.String(), "*") {
		t.Error("default glyph missing")
	}
}

func TestScatterEmpty(t *testing.T) {
	var buf bytes.Buffer
	Scatter(&buf, "t", "x", "y", nil, 20, 8)
	if !strings.Contains(buf.String(), "no data") {
		t.Error("empty scatter must say so")
	}
}
