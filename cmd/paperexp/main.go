// Command paperexp regenerates the paper's evaluation: the idle-latency
// identity (V1) and Figures 4 through 13. Each experiment prints the same
// rows/series the paper reports, annotated with the paper's headline
// numbers where the text states them.
//
// Examples:
//
//	paperexp -all                  # everything, full workload set
//	paperexp -fig 7                # one figure
//	paperexp -fig 7 -quick         # reduced workload set
//	paperexp -all -insts 1000000   # longer runs for tighter averages
//	paperexp -all -journal ckpt/   # checkpoint sweeps; re-run to resume
//
// Every figure runs as a sweep through the internal/sweep engine. With
// -journal DIR each sweep checkpoints its completed grid points to
// DIR/<sweep>-<fingerprint>.ndjson; a killed run re-invoked with the same
// flags resumes from the journals and produces bit-identical results.
// -abort-after N stops the suite deterministically after N fresh
// simulations (exit code 3) — the hook CI uses to exercise kill/resume.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fbdsim/internal/exp"
)

func main() {
	var (
		all      = flag.Bool("all", false, "run every experiment")
		fig      = flag.String("fig", "", "comma-separated figure numbers (4-13), 'v1', or extensions 'e1'-'e6', 'e8'")
		quick    = flag.Bool("quick", false, "use the reduced workload set")
		insts    = flag.Int64("insts", 300_000, "measured instructions per core per run")
		warmup   = flag.Int64("warmup", 40_000, "warmup instructions per core per run (0 = the 40,000 default)")
		seed     = flag.Int64("seed", 1, "trace generation seed")
		parallel = flag.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		plot     = flag.Bool("plot", false, "also render figures as terminal charts")
		csvDir   = flag.String("csv", "", "directory to write per-figure CSV files into")
		journal  = flag.String("journal", "", "directory for sweep checkpoint journals; re-running with the same flags resumes")
		abort    = flag.Int("abort-after", 0, "abort the suite after N fresh simulations (exit 3); used with -journal to test resume")
		fid      = flag.String("fidelity", "", "simulation tier for every run: cycle-accurate (default) or sampled")
	)
	flag.Parse()

	opts := exp.Options{
		MaxInsts:         *insts,
		WarmupInsts:      *warmup,
		Seed:             *seed,
		Parallel:         *parallel,
		Journal:          *journal,
		AbortAfterPoints: *abort,
		Fidelity:         *fid,
	}
	if *quick {
		opts.Workloads = exp.QuickWorkloads()
	}
	// Refuse nonsense values as usage errors instead of silently
	// normalizing them (a negative -parallel used to be treated as 0).
	if err := opts.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "paperexp: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	plotWanted = *plot
	csvWanted = *csvDir

	// The table is complete before the runner exists, so every requested
	// id is checked before anything simulates; the entries read runner
	// only when they run.
	var runner *exp.Runner
	type experiment struct {
		id  string
		run func() error
	}
	experiments := []experiment{
		{"v1", func() error {
			l, err := exp.MeasureIdleLatencies()
			if err != nil {
				return err
			}
			l.Format(os.Stdout)
			return nil
		}},
		{"4", runFig(func() (formatter, error) { d, err := exp.Figure4(runner); return d, err })},
		{"5", runFig(func() (formatter, error) { d, err := exp.Figure5(runner); return d, err })},
		{"6", runFig(func() (formatter, error) { d, err := exp.Figure6(runner); return d, err })},
		{"7", runFig(func() (formatter, error) { d, err := exp.Figure7(runner); return d, err })},
		{"8", runFig(func() (formatter, error) { d, err := exp.Figure8(runner); return d, err })},
		{"9", runFig(func() (formatter, error) { d, err := exp.Figure9(runner); return d, err })},
		{"10", runFig(func() (formatter, error) { d, err := exp.Figure10(runner); return d, err })},
		{"11", runFig(func() (formatter, error) { d, err := exp.Figure11(runner); return d, err })},
		{"12", runFig(func() (formatter, error) { d, err := exp.Figure12(runner); return d, err })},
		{"13", runFig(func() (formatter, error) { d, err := exp.Figure13(runner); return d, err })},
		{"e1", runFig(func() (formatter, error) { d, err := exp.ExtensionHWPrefetch(runner); return d, err })},
		{"e2", runFig(func() (formatter, error) { d, err := exp.ExtensionRefresh(runner); return d, err })},
		{"e3", runFig(func() (formatter, error) { d, err := exp.ExtensionPermutation(runner); return d, err })},
		{"e4", runFig(func() (formatter, error) { d, err := exp.ExtensionSeedSensitivity(runner, nil); return d, err })},
		{"e5", runFig(func() (formatter, error) { d, err := exp.ExtensionDDR3(runner); return d, err })},
		{"e6", runFig(func() (formatter, error) { d, err := exp.ExtensionFaultSweep(runner); return d, err })},
		{"e8", runFig(func() (formatter, error) { d, err := exp.ExtensionTieredFidelity(runner); return d, err })},
	}

	// want maps every id in the table to whether this run selects it.
	want := map[string]bool{}
	for _, e := range experiments {
		want[e.id] = *all
	}
	selected := *all
	for _, f := range strings.Split(*fig, ",") {
		if f = strings.TrimSpace(strings.ToLower(f)); f == "" {
			continue
		}
		if _, ok := want[f]; !ok {
			fmt.Fprintf(os.Stderr, "paperexp: unknown experiment %q\n", f)
			os.Exit(2)
		}
		want[f] = true
		selected = true
	}
	if !selected {
		fmt.Fprintln(os.Stderr, "paperexp: nothing to do; pass -all or -fig N")
		flag.Usage()
		os.Exit(2)
	}
	runner = exp.NewRunner(opts)

	start := time.Now()
	ran := 0
	for _, e := range experiments {
		if !want[e.id] {
			continue
		}
		if ran > 0 {
			fmt.Println()
		}
		if err := e.run(); err != nil {
			if errors.Is(err, exp.ErrAborted) {
				fmt.Fprintf(os.Stderr, "paperexp: experiment %s: %v; re-run with the same -journal to resume\n", e.id, err)
				os.Exit(3)
			}
			fmt.Fprintf(os.Stderr, "paperexp: experiment %s: %v\n", e.id, err)
			os.Exit(1)
		}
		ran++
	}
	fmt.Println()
	runner.LogSummary(os.Stdout)
	fmt.Printf("%d experiment(s) in %.1fs\n", ran, time.Since(start).Seconds())
}

// formatter is implemented by every figure's Data type.
type formatter interface{ Format(w io.Writer) }

// plotter is implemented by the Data types with a chart rendering.
type plotter interface{ Plot(w io.Writer) }

// csver is implemented by the Data types with a CSV export.
type csver interface{ CSV(w io.Writer) error }

var (
	plotWanted bool
	csvWanted  string
)

// runFig adapts a figure function to the experiment table, optionally
// rendering a chart and a CSV file.
func runFig(f func() (formatter, error)) func() error {
	return func() error {
		d, err := f()
		if err != nil {
			return err
		}
		d.Format(os.Stdout)
		if plotWanted {
			if p, ok := d.(plotter); ok {
				fmt.Println()
				p.Plot(os.Stdout)
			}
		}
		if csvWanted != "" {
			if c, ok := d.(csver); ok {
				if err := writeCSV(csvWanted, d, c); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// writeCSV stores the figure's rows under <dir>/<TypeName>.csv.
func writeCSV(dir string, d formatter, c csver) error {
	name := fmt.Sprintf("%T", d)
	if i := strings.LastIndex(name, "."); i >= 0 {
		name = name[i+1:]
	}
	name = strings.TrimSuffix(name, "Data")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return c.CSV(f)
}
