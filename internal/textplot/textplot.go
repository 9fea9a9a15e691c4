// Package textplot renders the paper's figures as terminal graphics: bar
// charts for the speedup/power comparisons and scatter plots for the
// bandwidth-versus-latency figures. Everything is plain text so results can
// be read in CI logs and diffed between runs.
package textplot

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Bar is one labeled value of a bar chart.
type Bar struct {
	Label string
	Value float64
}

// BarChart writes a horizontal bar chart. Bars scale to width characters at
// the maximum value; a baseline (e.g. 1.0 for normalized plots) draws a
// marker column when it falls inside the plotted range.
func BarChart(w io.Writer, title string, bars []Bar, width int, baseline float64) {
	if width < 10 {
		width = 10
	}
	fmt.Fprintf(w, "%s\n", title)
	if len(bars) == 0 {
		fmt.Fprintln(w, "  (no data)")
		return
	}
	labelW := 0
	maxV := math.Inf(-1)
	for _, b := range bars {
		if len(b.Label) > labelW {
			labelW = len(b.Label)
		}
		if b.Value > maxV {
			maxV = b.Value
		}
	}
	if maxV <= 0 {
		maxV = 1
	}
	scale := float64(width) / maxV
	baseCol := -1
	if baseline > 0 && baseline <= maxV {
		baseCol = int(baseline * scale)
	}
	for _, b := range bars {
		n := int(b.Value * scale)
		if n < 0 {
			n = 0
		}
		if n > width {
			n = width
		}
		row := []byte(strings.Repeat("#", n) + strings.Repeat(" ", width-n))
		if baseCol >= 0 && baseCol < len(row) {
			if row[baseCol] == ' ' {
				row[baseCol] = '|'
			} else {
				row[baseCol] = '+'
			}
		}
		fmt.Fprintf(w, "  %-*s %s %8.3f\n", labelW, b.Label, string(row), b.Value)
	}
}

// Point is one scatter-plot sample.
type Point struct {
	X, Y  float64
	Glyph rune // distinguishes series ('d' DDR2, 'f' FBD, 'a' FBD-AP, ...)
}

// Scatter writes an X/Y scatter plot of the points on a cols×rows character
// grid with axis annotations — the shape of Figures 5 and 10.
func Scatter(w io.Writer, title, xlabel, ylabel string, pts []Point, cols, rows int) {
	fmt.Fprintf(w, "%s\n", title)
	if len(pts) == 0 {
		fmt.Fprintln(w, "  (no data)")
		return
	}
	if cols < 16 {
		cols = 16
	}
	if rows < 8 {
		rows = 8
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, p := range pts {
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]rune, rows)
	for i := range grid {
		grid[i] = make([]rune, cols)
		for j := range grid[i] {
			grid[i][j] = ' '
		}
	}
	for _, p := range pts {
		c := int((p.X - minX) / (maxX - minX) * float64(cols-1))
		r := int((p.Y - minY) / (maxY - minY) * float64(rows-1))
		r = rows - 1 - r // origin bottom-left
		g := p.Glyph
		if g == 0 {
			g = '*'
		}
		if grid[r][c] != ' ' && grid[r][c] != g {
			grid[r][c] = '@' // overlapping series
		} else {
			grid[r][c] = g
		}
	}
	fmt.Fprintf(w, "  %s\n", ylabel)
	for r, row := range grid {
		var left string
		switch r {
		case 0:
			left = fmt.Sprintf("%8.1f", maxY)
		case rows - 1:
			left = fmt.Sprintf("%8.1f", minY)
		default:
			left = strings.Repeat(" ", 8)
		}
		fmt.Fprintf(w, "%s |%s|\n", left, string(row))
	}
	fmt.Fprintf(w, "%s +%s+\n", strings.Repeat(" ", 8), strings.Repeat("-", cols))
	fmt.Fprintf(w, "%s %-*.1f%*.1f\n", strings.Repeat(" ", 8), cols/2, minX, cols-cols/2, maxX)
	fmt.Fprintf(w, "%s %s\n", strings.Repeat(" ", 8), xlabel)
}
