package fbdsim_test

import (
	"context"
	"fmt"

	"fbdsim"
)

// The canonical comparison: FB-DIMM with and without AMB prefetching on a
// streaming workload. AMB prefetching must win.
func ExampleRun() {
	cfg := fbdsim.Default()
	cfg.MaxInsts = 60_000
	cfg.WarmupInsts = 8_000

	base, err := fbdsim.Run(context.Background(), cfg, []string{"swim"})
	if err != nil {
		fmt.Println(err)
		return
	}
	ap, err := fbdsim.Run(context.Background(), fbdsim.WithAMBPrefetch(cfg), []string{"swim"})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("AMB prefetching speeds up swim:", ap.IPC[0] > base.IPC[0])
	fmt.Println("and cuts DRAM activations:", ap.DRAM.ACT < base.DRAM.ACT)
	// Output:
	// AMB prefetching speeds up swim: true
	// and cuts DRAM activations: true
}

// Fault injection is switched on in the configuration, on top of
// Default()'s fault settings. They degrade no DIMM and map out no bank, so
// the run sees only the raised link-error rate.
func ExampleRun_faults() {
	cfg := fbdsim.Default()
	cfg.MaxInsts = 60_000
	cfg.WarmupInsts = 8_000
	cfg.Fault.Enabled = true
	cfg.Fault.SouthErrorRate = 0.01

	res, err := fbdsim.Run(context.Background(), cfg, []string{"swim"})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("link errors:", res.Faults.SouthFrameErrors > 0)
	fmt.Println("remapped", res.Faults.Remapped)
	// Output:
	// link errors: true
	// remapped 0
}

// Workload mixes come straight from Table 3.
func ExampleWorkloads() {
	for _, w := range fbdsim.MulticoreWorkloads()[:2] {
		fmt.Println(w.Name, w.Benchmarks)
	}
	// Output:
	// 2C-1 [wupwise swim]
	// 2C-2 [mgrid applu]
}

// SMTSpeedup is the Section 4.2 metric: per-program IPC ratios against
// dedicated single-core runs, summed.
func ExampleSMTSpeedup() {
	ipcTogether := []float64{0.8, 0.6}
	ipcAlone := []float64{1.0, 1.0}
	fmt.Printf("%.1f\n", fbdsim.SMTSpeedup(ipcTogether, ipcAlone))
	// Output:
	// 1.4
}
