package simserver

import (
	"fmt"
	"html"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"fbdsim/internal/telemetry"
	"fbdsim/internal/textplot"
)

// This file is the human end of the telemetry hub: GET /v1/dashboard
// renders the server's live state — worker-pool occupancy, queue depth,
// every job and sweep with its lifecycle state, and per-traced-job strips
// of the streaming epoch series (utilization, AMB hit rate, queue depth)
// as unicode sparklines. The default rendering is a self-refreshing HTML
// page; ?format=txt returns the identical text for curl and watch(1). Both
// come from one renderer, so the terminal view is never second class.

// occHistory remembers recent worker-pool occupancy samples, one per
// dashboard render. The auto-refreshing page becomes its own sampler: each
// refresh appends a point and the strip scrolls.
type occHistory struct {
	mu   sync.Mutex
	vals []float64
}

const occCap = 64

func (o *occHistory) observe(v float64) []float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.vals) >= occCap {
		copy(o.vals, o.vals[1:])
		o.vals = o.vals[:occCap-1]
	}
	o.vals = append(o.vals, v)
	return append([]float64(nil), o.vals...)
}

// idOrder sorts "job-12"-style IDs numerically by suffix.
func idOrder(ids []string) {
	sort.Slice(ids, func(a, b int) bool {
		na, _ := strconv.Atoi(ids[a][strings.LastIndexByte(ids[a], '-')+1:])
		nb, _ := strconv.Atoi(ids[b][strings.LastIndexByte(ids[b], '-')+1:])
		return na < nb
	})
}

// progressBar renders [#####-----] for a 0..1 fraction.
func progressBar(frac float64, width int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(frac*float64(width) + 0.5)
	return "[" + strings.Repeat("#", n) + strings.Repeat("-", width-n) + "]"
}

// dashboardText renders the whole dashboard as plain text.
func (s *Server) dashboardText() string {
	var sb strings.Builder

	version, _ := moduleVersion()
	uptime := time.Since(s.started).Truncate(time.Second)
	busy := s.busy.Load()
	workers := s.opts.Workers
	occ := s.occ.observe(float64(busy) / float64(workers))

	fmt.Fprintf(&sb, "fbdserve %s — up %s\n", version, uptime)
	fmt.Fprintf(&sb, "workers %d/%d %s   queue %d/%d   cache %d   sweeps active %d\n\n",
		busy, workers, textplot.Spark(occ, 32),
		len(s.queue), cap(s.queue), s.cache.Len(), s.activeSweeps())

	// Stable-order copies of the job and sweep tables.
	s.mu.Lock()
	jobIDs := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		jobIDs = append(jobIDs, id)
	}
	sweepIDs := make([]string, 0, len(s.sweeps))
	for id := range s.sweeps {
		sweepIDs = append(sweepIDs, id)
	}
	jobs := make([]*job, 0, len(jobIDs))
	idOrder(jobIDs)
	for _, id := range jobIDs {
		jobs = append(jobs, s.jobs[id])
	}
	sweeps := make([]*sweepJob, 0, len(sweepIDs))
	idOrder(sweepIDs)
	for _, id := range sweepIDs {
		sweeps = append(sweeps, s.sweeps[id])
	}
	s.mu.Unlock()

	sb.WriteString("jobs\n")
	if len(jobs) == 0 {
		sb.WriteString("  (none)\n")
	}
	for _, j := range jobs {
		v := j.snapshotView(false)
		tier := v.Fidelity
		if tier == "" {
			tier = "cycle-acc"
		}
		line := fmt.Sprintf("  %-8s %-9s %-10s %-24s attempts=%d", v.ID, v.State, tier, strings.Join(v.Benchmarks, "+"), v.Attempts)
		if v.TotalIPC > 0 {
			line += fmt.Sprintf("  ipc=%.3f", v.TotalIPC)
			if v.IPCCI95 > 0 {
				line += fmt.Sprintf("+/-%.3f", v.IPCCI95)
			}
		}
		if v.WallMS > 0 {
			line += fmt.Sprintf("  %.0f ms", v.WallMS)
		}
		if v.Error != "" {
			line += "  error: " + v.Error
		}
		sb.WriteString(line + "\n")
		// Traced jobs get live strips from the hub's latest window.
		writeJobStrips(&sb, j.stream.Snapshot(0))
	}

	sb.WriteString("\nsweeps\n")
	if len(sweeps) == 0 {
		sb.WriteString("  (none)\n")
	}
	for _, sj := range sweeps {
		v := sj.view()
		frac := 0.0
		if v.Progress.Total > 0 {
			frac = float64(v.Progress.Completed) / float64(v.Progress.Total)
		}
		fmt.Fprintf(&sb, "  %-8s %-9s %-16s %s %d/%d points, %d failed, %d cached\n",
			v.ID, v.State, v.Name, progressBar(frac, 20),
			v.Progress.Completed, v.Progress.Total, v.Progress.Failed, v.Progress.CacheHits)
	}
	return sb.String()
}

// writeJobStrips renders one traced job's epoch-series sparklines: DIMM-bus
// utilization, AMB hit rate and controller queue depth, annotated with the
// latest sample's values and the live simulation speed.
func writeJobStrips(sb *strings.Builder, st telemetry.Stats) {
	n := len(st.Samples)
	if n == 0 {
		return
	}
	util := make([]float64, n)
	hit := make([]float64, n)
	depth := make([]float64, n)
	for i, smp := range st.Samples {
		util[i] = smp.DIMMBusUtil
		hit[i] = smp.AMBHitRate
		depth[i] = float64(smp.QueueDepth)
	}
	latest := st.Latest
	fmt.Fprintf(sb, "           util %s %.2f   hit %s %.2f   q %s %d",
		textplot.Spark(util, 24), latest.DIMMBusUtil,
		textplot.Spark(hit, 24), latest.AMBHitRate,
		textplot.Spark(depth, 24), latest.QueueDepth)
	if latest.SimCyclesPerSec > 0 {
		fmt.Fprintf(sb, "   %.1f Mcyc/s", latest.SimCyclesPerSec/1e6)
	}
	fmt.Fprintf(sb, "   (%d epochs)\n", n)
}

const dashboardHTML = `<!DOCTYPE html>
<html><head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="2">
<title>fbdserve dashboard</title>
<style>
body { background: #101418; color: #d8dee9; font: 13px/1.45 "SF Mono", Menlo, Consolas, monospace; margin: 1.5em; }
pre { margin: 0; white-space: pre; }
</style>
</head><body><pre>%s</pre></body></html>
`

func (s *Server) handleDashboard(w http.ResponseWriter, r *http.Request) {
	text := s.dashboardText()
	if r.URL.Query().Get("format") == "txt" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, text)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = fmt.Fprintf(w, dashboardHTML, html.EscapeString(text))
}
