package stats

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing, goroutine-safe event counter — the
// building block of the serving-side metrics (jobs accepted, cache hits,
// ...) and of the experiment Runner's cache accounting.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n may be negative for gauge-like uses, e.g. queue depth).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Registry is an expvar-style collection of named metrics that renders
// itself as a JSON object. Values are read at render time, so registering a
// Counter or a Func is enough to keep the exported value live. The zero
// value is ready to use.
type Registry struct {
	mu    sync.Mutex
	names []string
	vars  map[string]func() any
}

// Func registers a metric computed at render time.
func (r *Registry) Func(name string, f func() any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.vars == nil {
		r.vars = make(map[string]func() any)
	}
	if _, dup := r.vars[name]; dup {
		panic(fmt.Sprintf("stats: duplicate metric %q", name))
	}
	r.names = append(r.names, name)
	r.vars[name] = f
}

// Counter registers and returns a named counter.
func (r *Registry) Counter(name string) *Counter {
	c := &Counter{}
	r.Func(name, func() any { return c.Value() })
	return c
}

// Snapshot returns the current value of every metric, keyed by name.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any, len(r.names))
	for name, f := range r.vars {
		out[name] = f()
	}
	return out
}

// Info is a label-set metric: constant facts about the process (version,
// toolchain, start time) exported Prometheus-style as the constant-1 sample
// name{key="value",...} 1, the idiom scrapers join other series against.
// WriteJSON renders it as a plain string map.
type Info map[string]string

// capture copies the registry's name list (sorted) and value funcs so
// rendering never holds the registry lock across user callbacks.
func (r *Registry) capture() ([]string, map[string]func() any) {
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	vars := make(map[string]func() any, len(names))
	for k, v := range r.vars {
		vars[k] = v
	}
	r.mu.Unlock()
	sort.Strings(names)
	return names, vars
}

// WriteJSON renders the registry as an indented JSON object with keys
// emitted explicitly in sorted order — deterministic output, pinned by a
// golden test, safe for scrapers to diff.
func (r *Registry) WriteJSON(w io.Writer) error {
	names, vars := r.capture()
	var buf bytes.Buffer
	buf.WriteString("{")
	for i, name := range names {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString("\n  ")
		key, err := json.Marshal(name)
		if err != nil {
			return err
		}
		buf.Write(key)
		buf.WriteString(": ")
		val, err := json.MarshalIndent(vars[name](), "  ", "  ")
		if err != nil {
			return fmt.Errorf("metric %q: %w", name, err)
		}
		buf.Write(val)
	}
	if len(names) > 0 {
		buf.WriteByte('\n')
	}
	buf.WriteString("}\n")
	_, err := w.Write(buf.Bytes())
	return err
}

// WriteProm renders the registry in the Prometheus text exposition format
// (version 0.0.4), keys in sorted order, names sanitized to the Prometheus
// charset. Value types map onto exposition types:
//
//   - numbers and bools: one untyped sample
//   - *Histogram (clock.Time picoseconds): a native histogram — cumulative
//     _bucket{le="..."} samples with bounds converted to seconds, then
//     _sum and _count
//   - Info: the constant-1 labeled sample name{k="v",...} 1
//
// Anything else is skipped.
func (r *Registry) WriteProm(w io.Writer) error {
	names, vars := r.capture()
	for _, name := range names {
		pn := promName(name)
		var err error
		switch x := vars[name]().(type) {
		case *Histogram:
			err = writePromHistogram(w, pn, x)
		case Info:
			err = writePromInfo(w, pn, x)
		default:
			v, ok := promValue(x)
			if !ok {
				continue
			}
			_, err = fmt.Fprintf(w, "# TYPE %s untyped\n%s %s\n", pn, pn, v)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// promTicksPerSecond converts the histogram domain (clock.Time
// picoseconds) to the Prometheus convention of seconds. Dividing by the
// exactly representable 1e12 keeps round values round ("1.002e-06", not
// "1.0019999999999999e-06").
const promTicksPerSecond = 1e12

// writePromHistogram renders one *Histogram as a native Prometheus
// histogram. Bucket bounds are the histogram's internal log-linear bounds
// in seconds; only non-empty buckets are emitted (counts are cumulative, so
// eliding empties is lossless), with the mandatory +Inf bucket closing the
// series.
func writePromHistogram(w io.Writer, name string, h *Histogram) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	for _, b := range h.CumulativeBuckets() {
		le := float64(b.Upper) / promTicksPerSecond
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatProm(le), b.Cumulative); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count()); err != nil {
		return err
	}
	sum := float64(h.Sum()) / promTicksPerSecond
	_, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", name, formatProm(sum), name, h.Count())
	return err
}

// writePromInfo renders an Info metric as the constant-1 labeled sample,
// labels in sorted order with values escaped per the exposition format.
func writePromInfo(w io.Writer, name string, info Info) error {
	keys := make([]string, 0, len(info))
	for k := range info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(promName(k))
		sb.WriteString(`="`)
		sb.WriteString(promEscape(info[k]))
		sb.WriteByte('"')
	}
	_, err := fmt.Fprintf(w, "# TYPE %s untyped\n%s{%s} 1\n", name, name, sb.String())
	return err
}

// formatProm formats a float the way the exposition format expects.
func formatProm(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promEscape escapes a label value: backslash, double quote and newline.
func promEscape(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// promValue formats a metric value as a Prometheus sample, or reports that
// the value is not numeric.
func promValue(v any) (string, bool) {
	switch x := v.(type) {
	case int:
		return fmt.Sprintf("%d", x), true
	case int64:
		return fmt.Sprintf("%d", x), true
	case uint64:
		return fmt.Sprintf("%d", x), true
	case float64:
		return fmt.Sprintf("%g", x), true
	case float32:
		return fmt.Sprintf("%g", x), true
	case bool:
		if x {
			return "1", true
		}
		return "0", true
	default:
		return "", false
	}
}

// promName maps a registry name onto the Prometheus metric charset
// [a-zA-Z_:][a-zA-Z0-9_:]*, replacing every other rune with '_'.
func promName(name string) string {
	out := []byte(name)
	for i, c := range out {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			out[i] = '_'
		}
	}
	if len(out) == 0 {
		return "_"
	}
	return string(out)
}
