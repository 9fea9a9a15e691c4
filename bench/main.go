// Command bench is fbdsim's end-to-end and per-layer benchmark. It runs the
// simulator on the paper's AMB-prefetching machine (fbd-ap) through the
// public functions of the system, sample and exp packages, checks every
// run's results, and prints every metric by name with its unit. See
// README.md for the workloads, metrics and commands.
//
// Each workload runs in a child process of its own, one at a time, so
// max_rss_mb is that workload's peak and no two simulations compete for the
// host.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fbdsim/internal/config"
	"fbdsim/internal/system"
)

// childEnv marks a process started by the benchmark to run one workload.
const childEnv = "FBDBENCH_CHILD"

// refLoopEnv selects the simulator's tick-every-cycle reference loop in
// every system.New (see internal/system).
const refLoopEnv = "SIM_REFERENCE_LOOP"

const (
	// setupShare is the time spent timing machine builds ahead of each
	// timed run, as a share of one run.
	setupShare = 0.2
)

type options struct {
	workload     string
	seed         int64
	seconds      float64
	trace        bool
	scale        float64
	updateGolden bool
}

func parseFlags(args []string) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all, one after another)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: picks the trace seed from the workload's verified seeds")
	fs.Float64Var(&o.seconds, "seconds", 15, "timed seconds per workload (at least one timed run)")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics (profiled runs and layer kernels) instead")
	fs.Float64Var(&o.scale, "scale", 1, "multiply every instruction budget (goldens hold only at 1)")
	fs.BoolVar(&o.updateGolden, "update-golden", false, "search for verified trace seeds, rewrite the golden digests and exit")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, not %d", trace)
	}
	o.trace = trace == 1
	if o.seconds < 0 || o.scale <= 0 {
		return o, errors.New("-seconds must be non-negative and -scale positive")
	}
	if o.workload != "" {
		if _, err := findWorkload(o.workload); err != nil {
			return o, err
		}
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(o, os.Stdout))
	}
	os.Exit(parentMain(o, os.Args[1:], os.Stdout))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// childReport is what a child hands its parent: the report plus the
// quartiles and run count the human-readable table shows.
type childReport struct {
	report
	Quartiles map[string][2]float64 `json:"quartiles,omitempty"`
	Runs      int                   `json:"runs"`
	TraceSeed int64                 `json:"trace_seed"`
	Check     string                `json:"check"`
	Notes     []string              `json:"notes,omitempty"`
}

func newChildReport() *childReport {
	return &childReport{report: report{Metrics: map[string]metric{}}, Quartiles: map[string][2]float64{}}
}

func (c *childReport) set(name, unit string, v float64) { c.Metrics[name] = metric{v, unit} }

// series reports the median of xs and keeps its quartiles for the table.
func (c *childReport) series(name, unit string, xs []float64) {
	c.set(name, unit, median(xs))
	q1, q3 := quartiles(xs)
	c.Quartiles[name] = [2]float64{q1, q3}
}

// parentMain runs the selected workloads one child process at a time and
// prints each one's table and result line.
func parentMain(o options, args []string, stdout io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	status := 0
	for _, w := range workloads {
		if o.workload != "" && w.name != o.workload {
			continue
		}
		childArgs := append(append([]string(nil), args...), "-workload", w.name)
		rep, err := runChild(exe, childArgs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if o.updateGolden {
			continue
		}
		printReport(stdout, w.name, o, rep)
		if !rep.Correct {
			status = 1
		}
	}
	return status
}

// runChild runs one workload in a child process and returns its report,
// with the child's peak resident set added to the end-to-end metrics.
func runChild(exe string, args []string) (*childReport, error) {
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	rep := newChildReport()
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), rep); err != nil {
		return nil, fmt.Errorf("child report: %w", err)
	}
	if _, ok := rep.Metrics["wall_s"]; ok {
		ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		if !ok {
			return nil, errors.New("no resource usage for the child")
		}
		rep.set("max_rss_mb", "MB", float64(ru.Maxrss)*1024/1e6) // Linux reports KiB
	}
	return rep, nil
}

func printReport(w io.Writer, name string, o options, rep *childReport) {
	mode := "end-to-end"
	if o.trace {
		mode = "per-layer"
	}
	fmt.Fprintf(w, "%s  seed %d (trace seed %d)  %s  runs %d  attempted %d  failed %d  results checked against %s\n",
		name, o.seed, rep.TraceSeed, mode, rep.Runs, rep.Attempted, rep.Failed, rep.Check)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "  %-34s %14s %-14s", n, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
		if q, ok := rep.Quartiles[n]; ok {
			fmt.Fprintf(w, " q1 %-10s q3 %s", strconv.FormatFloat(q[0], 'g', 6, 64), strconv.FormatFloat(q[1], 'g', 6, 64))
		}
		fmt.Fprintln(w)
	}
	for _, n := range rep.Notes {
		fmt.Fprintln(w, "  "+n)
	}
	line, _ := json.Marshal(rep.report) // a map of plain numbers always marshals
	fmt.Fprintln(w, string(line))
}

// childMain runs one workload and writes its child report as one JSON
// line. A failed results check is reported, not returned as an error.
func childMain(o options, stdout io.Writer) int {
	w, err := findWorkload(o.workload)
	if err == nil {
		var rep *childReport
		if o.updateGolden {
			err = updateGolden(w, o)
			rep = newChildReport()
		} else {
			rep, err = measure(w, o)
		}
		if err == nil {
			rep.Correct = rep.Failed == 0
			err = json.NewEncoder(stdout).Encode(rep)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	return 0
}

// trial is one child's measurement of one workload on one trace seed.
type trial struct {
	w     workload
	cfg   config.Config
	chk   *checker
	first runOut // the untimed warm-up run
	rep   *childReport
}

func measure(w workload, o options) (*childReport, error) {
	g, err := loadGolden(w.name)
	if err != nil {
		return nil, err
	}
	v := g.pick(o.seed)
	t := &trial{w: w, cfg: w.config(v.Seed, o.scale), rep: newChildReport()}
	t.rep.TraceSeed = v.Seed
	if t.chk, t.first, err = newChecker(w, t.cfg, v.Digest, o.scale == 1, t.rep); err != nil {
		return nil, err
	}
	if o.trace {
		err = t.measureLayers(o.seconds)
	} else {
		err = t.measureEndToEnd(o.seconds)
	}
	t.rep.Attempted, t.rep.Failed = t.chk.attempted, t.chk.failed
	return t.rep, err
}

// timedRuns runs the workload at least once and until seconds have passed,
// checking each run, and returns the runs that passed. before, when set,
// runs ahead of each run.
func (t *trial) timedRuns(seconds float64, before func()) []runOut {
	var runs []runOut
	start := time.Now()
	for n := 0; n == 0 || time.Since(start).Seconds() < seconds; n++ {
		if before != nil {
			before()
		}
		out, err := t.w.run(t.cfg, t.w.mix)
		if t.chk.note(t.w, out, err) {
			runs = append(runs, out)
		}
	}
	return runs
}

func (t *trial) measureEndToEnd(seconds float64) error {
	// Set-up builds are spread between the timed runs, so their median
	// samples the same stretch of host time as the runs' medians do. Each
	// batch builds for setupShare of the warm-up run's wall time: hundreds
	// of builds in all, since one build takes milliseconds.
	var setup []float64
	var err error
	budget := time.Duration(setupShare * float64(t.first.wall))
	runs := t.timedRuns(seconds, func() {
		if err == nil {
			var xs []float64
			xs, err = setupSeconds(t.cfg, t.w.mix, budget)
			setup = append(setup, xs...)
		}
	})
	if err != nil {
		return err
	}
	rep := t.rep
	rep.series("setup_s", "s", setup)
	rep.Runs = len(runs)
	var wall, mcyc, minst, allocs, mb []float64
	for _, r := range runs {
		sec := r.wall.Seconds()
		wall = append(wall, sec)
		mcyc = append(mcyc, float64(r.cycles)/sec/1e6)
		minst = append(minst, float64(r.insts)/sec/1e6)
		allocs = append(allocs, float64(r.mallocs)/(float64(r.insts)/1e6))
		mb = append(mb, float64(r.bytes)/1e6)
	}
	rep.series("wall_s", "s", wall)
	rep.series("sim_mcycles_per_s", "Mcycle/s", mcyc)
	rep.series("sim_minsts_per_s", "Minst/s", minst)
	rep.series("allocs_per_minst", "allocs/Minst", allocs)
	rep.series("alloc_mb", "MB", mb)
	return nil
}

// setupSeconds times builds of the workload's largest machine, at least
// one and until budget has passed. Each build starts with the heap
// collected and its free memory returned to the OS, as in a fresh process:
// a build that reused pages a previous build left would skip the page
// faults and time a different cost.
func setupSeconds(cfg config.Config, mix []string, budget time.Duration) ([]float64, error) {
	var xs []float64
	for begin := time.Now(); len(xs) == 0 || time.Since(begin) < budget; {
		debug.FreeOSMemory()
		start := time.Now()
		_, err := system.New(cfg, mix)
		xs = append(xs, time.Since(start).Seconds())
		if err != nil {
			return nil, err
		}
	}
	return xs, nil
}
