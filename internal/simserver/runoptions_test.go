package simserver

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"fbdsim/internal/config"
	"fbdsim/internal/fidelity"
	"fbdsim/internal/system"
)

// TestRunOptionsWiring pins the engine options each kind of job hands its
// RunFunc: cycle-accurate jobs arm a checkpoint carrying the job's pause
// Trigger, resumed jobs also restore the paused job's snapshot, traced jobs
// get the same options as untraced ones (tracing travels in the config),
// and estimate-tier jobs run with no options at all.
func TestRunOptionsWiring(t *testing.T) {
	type call struct {
		tier fidelity.Tier
		opts system.Options
	}
	calls := make(chan call, 1)
	run := func(ctx context.Context, tier fidelity.Tier, cfg config.Config, benchmarks []string, opts system.Options) (system.Results, error) {
		calls <- call{tier, opts}
		if cfg.Seed == 1 && opts.Restore == nil {
			// Pause the first job, the way the engine does, so the next
			// one can resume it.
			if err := opts.Checkpoint.OnCheckpoint(system.Checkpoint{Data: []byte("snapshot")}); err != nil {
				return system.Results{}, err
			}
			return system.Results{}, system.ErrPaused
		}
		return system.Results{Benchmarks: benchmarks, Cores: len(benchmarks), IPC: []float64{1}}, nil
	}
	s, ts := newTestServer(t, Options{Workers: 1, Run: run})

	var paused string
	for _, tc := range []struct {
		name  string
		body  string // $PAUSED stands for the paused job's ID
		state State
		tier  fidelity.Tier
		// The options the job must get.
		checkpoint, restore bool
	}{
		{name: "cycle-accurate", body: `{"benchmarks": ["swim"], "seed": 1}`, state: StatePaused, checkpoint: true},
		{name: "from_checkpoint", body: `{"from_checkpoint": "$PAUSED"}`, state: StateDone, checkpoint: true, restore: true},
		{name: "traced", body: `{"benchmarks": ["swim"], "seed": 2, "trace": true}`, state: StateDone, checkpoint: true},
		{name: "sampled", body: `{"benchmarks": ["swim"], "seed": 3, "fidelity": "sampled"}`, state: StateDone, tier: fidelity.Sampled},
		{name: "analytic", body: `{"benchmarks": ["swim"], "seed": 4, "fidelity": "analytic"}`, state: StateDone, tier: fidelity.Analytic},
	} {
		status, v, _ := postJob(t, ts, strings.ReplaceAll(tc.body, "$PAUSED", paused))
		if status != http.StatusAccepted {
			t.Fatalf("%s: submit status %d", tc.name, status)
		}
		waitState(t, ts, v.ID, tc.state)
		if tc.state == StatePaused {
			paused = v.ID
		}
		var c call
		select {
		case c = <-calls:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: the job never reached its RunFunc", tc.name)
		}
		o := c.opts
		if c.tier != tc.tier {
			t.Errorf("%s: tier %q, want %q", tc.name, c.tier, tc.tier)
		}
		if got := o.Checkpoint != nil; got != tc.checkpoint {
			t.Errorf("%s: checkpoint armed %v, want %v", tc.name, got, tc.checkpoint)
		} else if got && o.Checkpoint.Trigger != s.lookup(v.ID).pauseTrig {
			t.Errorf("%s: checkpoint does not carry the job's pause trigger", tc.name)
		}
		if got := o.Restore != nil; got != tc.restore {
			t.Errorf("%s: restore set %v, want %v", tc.name, got, tc.restore)
		} else if got && string(o.Restore.Data) != "snapshot" {
			t.Errorf("%s: restores %q, want the paused job's snapshot", tc.name, o.Restore.Data)
		}
		if o.Progress != nil {
			t.Errorf("%s: jobs report no progress callback, got one", tc.name)
		}
	}
}
