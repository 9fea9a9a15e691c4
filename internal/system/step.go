package system

import "context"

// This file is the windowed-stepping face of the System: the sampling tier
// (internal/sample) drives a single machine through an alternation of
// functionally-executed spans (FunctionalAdvance — caches and prefetchers
// stay warm, timing models bypassed, simulated clock frozen) and detailed
// measured windows (StepWindow — the ordinary event-driven loop, measured
// with the same warm-baseline delta machinery a full run uses). Because a
// functional span does not advance the clock and leaves all in-flight
// detailed state (ROB entries, MSHRs, controller transactions) untouched,
// the detailed windows stitch together into one continuous timed execution
// of the sampled instruction stream.

// functionalChunk is the per-core round-robin grain of FunctionalAdvance.
// Cores must interleave at a grain far smaller than the advance span:
// running each core's whole span back-to-back would serialize access
// streams that contend in the shared L2 and AMB caches during detailed
// execution, measurably inflating the functional miss counts on multicore
// workloads.
const functionalChunk = 256

// FunctionalAdvance executes insts instructions per core functionally: the
// trace streams advance and cache/AMB/prefetcher tag state mutates exactly
// as a detailed run of those instructions would mutate it, but no cycle
// passes and nothing is timed. See cpu.(*Core).FunctionalAdvance.
func (s *System) FunctionalAdvance(insts int64) {
	for done := int64(0); done < insts; done += functionalChunk {
		n := insts - done
		if n > functionalChunk {
			n = functionalChunk
		}
		for _, c := range s.cores {
			c.FunctionalAdvance(n)
		}
	}
}

// FunctionalAdvanceEach is FunctionalAdvance with a per-core instruction
// count (insts[i] for core i; len must match the core count). The sampling
// tier uses it to advance heterogeneous cores at their measured relative
// rates, preserving the natural inter-core drift a detailed run would
// produce: cores that share the L2, AMB caches and channel contend
// differently when their stream positions diverge, so pinning them to
// equal progress during functional spans biases the measured windows.
// Chunked round-robin interleaving scales each core's grain so all cores
// finish their quota together.
func (s *System) FunctionalAdvanceEach(insts []int64) {
	max := maxOf64(insts)
	if max <= 0 {
		return
	}
	done := make([]int64, len(insts))
	for base := int64(0); base < max; base += functionalChunk {
		for i, c := range s.cores {
			// This round's quota: the core's proportional share of the
			// schedule up to base+chunk, less what it has already run.
			q := insts[i] * (base + functionalChunk) / max
			if q > insts[i] {
				q = insts[i]
			}
			if n := q - done[i]; n > 0 {
				c.FunctionalAdvance(n)
				done[i] = q
			}
		}
	}
}

func maxOf64(xs []int64) int64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// StepWindow runs the machine in full detail from its current position:
// ramp instructions per core of unmeasured settling (structures the
// functional span cannot warm — controller queues, ROB, MSHR occupancy —
// return to steady state), then a measured window that ends when any core
// commits measure instructions past the settling boundary. It returns the
// window's Results; the machine stays live at the final cycle boundary, so
// further FunctionalAdvance/StepWindow calls continue seamlessly. The
// window is the run's own: the System's configuration stays as built.
func (s *System) StepWindow(ctx context.Context, ramp, measure int64) (Results, error) {
	return s.run(ctx, s.stepWindow(ramp, measure))
}

// stepWindow is StepWindow's window. The warm-at threshold is absolute in
// the run loops, so it is anchored at the current stream position; the
// wedge guard is sized from the window's own instructions.
func (s *System) stepWindow(ramp, measure int64) window {
	ramp = max(ramp, 0)
	measure = max(measure, 1)
	return window{warmAt: s.minCommitted() + ramp, measure: measure, budget: ramp + measure}
}

// Committed reports the per-core cumulative committed-instruction counts —
// the sampling tier's notion of stream position.
func (s *System) Committed() []int64 { return s.committedNow() }

// Cycle reports the boundary cycle the machine is parked at (the resume
// point of the next StepWindow).
func (s *System) Cycle() int64 { return s.cycle }
