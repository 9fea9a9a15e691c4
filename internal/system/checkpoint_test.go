package system

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"

	"fbdsim/internal/config"
	"fbdsim/internal/snapshot"
)

// checkpointAt runs cfg with a one-shot checkpoint at the first boundary at
// or after atCycle and returns the run's Results plus the captured bytes.
func checkpointAt(t *testing.T, cfg config.Config, benchmarks []string, atCycle int64, atWarm bool) (Results, []byte, int64) {
	t.Helper()
	var data []byte
	var cpCycle int64
	opts := Options{Checkpoint: &CheckpointSpec{
		AtCycle: atCycle,
		AtWarm:  atWarm,
		OnCheckpoint: func(cp Checkpoint) error {
			data = append([]byte(nil), cp.Data...)
			cpCycle = cp.Cycle
			return nil
		},
	}}
	res, err := RunWorkload(context.Background(), cfg, benchmarks, opts)
	if err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	if data == nil {
		t.Fatalf("no checkpoint captured (atCycle=%d atWarm=%v)", atCycle, atWarm)
	}
	return res, data, cpCycle
}

// restoreAndRun builds a fresh System, restores data into it and runs it to
// completion with the requested loop.
func restoreAndRun(t *testing.T, cfg config.Config, benchmarks []string, data []byte, reference bool) Results {
	t.Helper()
	s, err := New(cfg, benchmarks)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.RestoreSnapshot(data); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	s.SetReferenceLoop(reference)
	res, err := s.Run()
	if err != nil {
		t.Fatalf("restored run (reference=%v): %v", reference, err)
	}
	return res
}

// TestCheckpointRestoreBitIdentical is the property test backing the
// snapshot subsystem: across interconnects and seeds, with fault injection
// and memtrace recording enabled, a run snapshotted at a random post-warmup
// boundary and resumed in a freshly built System must produce Results that
// DeepEqual the unbroken run's — every counter, histogram bucket, PRNG-driven
// fault, trace event and epoch row. The checkpointed (but uninterrupted) run
// itself must also be unperturbed, and the restored machine must replay
// identically under both simulation loops.
func TestCheckpointRestoreBitIdentical(t *testing.T) {
	benchmarks := []string{"mcf", "art"}
	modes := []struct {
		name string
		cfg  func() config.Config
	}{
		{"ddr2", config.DDR2Baseline},
		{"fbd", config.Default},
		{"fbd-ap", func() config.Config { return config.WithAMBPrefetch(config.Default()) }},
	}
	for _, mode := range modes {
		for _, seed := range []int64{1, 7} {
			name := fmt.Sprintf("%s/seed%d", mode.name, seed)
			t.Run(name, func(t *testing.T) {
				cfg := mode.cfg()
				equivBudgets(&cfg)
				cfg.Seed = seed
				cfg.Fault = config.Fault{
					Enabled:          true,
					Seed:             seed + 100,
					SouthErrorRate:   0.002,
					NorthErrorRate:   0.002,
					AMBSoftErrorRate: 0.001,
					DegradedChannel:  0,
					DegradedDIMM:     1,
					DeadBank:         -1,
				}
				cfg.Trace.Enabled = true
				cfg.Trace.MaxEvents = 4096

				base, err := RunWorkload(context.Background(), cfg, benchmarks, Options{})
				if err != nil {
					t.Fatalf("baseline run: %v", err)
				}

				// Learn the warmup boundary, then checkpoint at a random
				// boundary shortly after it (the measured window is tens of
				// boundaries long at these budgets).
				warmRes, warmData, warmCycle := checkpointAt(t, cfg, benchmarks, 0, true)
				if !reflect.DeepEqual(base, warmRes) {
					t.Fatalf("taking a warm checkpoint perturbed the run")
				}
				rng := rand.New(rand.NewSource(seed * 7919))
				at := warmCycle + (1+rng.Int63n(8))*checkInterval
				midRes, midData, midCycle := checkpointAt(t, cfg, benchmarks, at, false)
				if !reflect.DeepEqual(base, midRes) {
					t.Fatalf("taking a mid-run checkpoint perturbed the run")
				}
				if midCycle < at || midCycle%checkInterval != 0 {
					t.Fatalf("checkpoint landed at %d, want boundary >= %d", midCycle, at)
				}

				for _, tc := range []struct {
					label string
					data  []byte
				}{
					{"warm", warmData},
					{"mid-measurement", midData},
				} {
					got := restoreAndRun(t, cfg, benchmarks, tc.data, false)
					if !reflect.DeepEqual(base, got) {
						t.Errorf("%s checkpoint: restored fast-loop run diverged\nbase:     %+v\nrestored: %+v", tc.label, base, got)
					}
					got = restoreAndRun(t, cfg, benchmarks, tc.data, true)
					if !reflect.DeepEqual(base, got) {
						t.Errorf("%s checkpoint: restored reference-loop run diverged\nbase:     %+v\nrestored: %+v", tc.label, base, got)
					}
				}
			})
		}
	}
}

// TestRestoreRejectsWrongMachine: a checkpoint only restores into a machine
// with the same config+workload fingerprint, and a rejected restore leaves
// the target machine untouched and runnable.
func TestRestoreRejectsWrongMachine(t *testing.T) {
	cfg := config.Default()
	equivBudgets(&cfg)
	_, data, _ := checkpointAt(t, cfg, []string{"swim"}, 0, true)

	other := cfg
	other.Seed = cfg.Seed + 1
	s, err := New(other, []string{"swim"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.RestoreSnapshot(data); !errors.Is(err, snapshot.ErrFingerprint) {
		t.Fatalf("restore into different machine returned %v, want ErrFingerprint", err)
	}
	want, err := RunWorkload(context.Background(), other, []string{"swim"}, Options{})
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	got, err := s.Run()
	if err != nil {
		t.Fatalf("run after rejected restore: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("rejected restore left the machine perturbed")
	}
}

// truncateLastSection rewrites a snapshot so its container stays valid
// (magic, version, fingerprint, CRC all intact) but the final section's
// payload is 8 bytes short — corruption only the per-section decode can
// catch, after every earlier section already decoded successfully.
func truncateLastSection(t *testing.T, data []byte) []byte {
	t.Helper()
	body := append([]byte(nil), data[:len(data)-4]...)
	off := 8 + 4 // magic + version
	fpLen := binary.LittleEndian.Uint64(body[off:])
	off += 8 + int(fpLen)
	nsect := binary.LittleEndian.Uint32(body[off:])
	off += 4
	lenOff := 0
	for i := uint32(0); i < nsect; i++ {
		tagLen := binary.LittleEndian.Uint64(body[off:])
		off += 8 + int(tagLen)
		lenOff = off
		payLen := binary.LittleEndian.Uint64(body[off:])
		off += 8 + int(payLen)
	}
	if off != len(body) {
		t.Fatalf("section walk ended at %d of %d", off, len(body))
	}
	payLen := binary.LittleEndian.Uint64(body[lenOff:])
	if payLen < 8 {
		t.Fatalf("last section too small to truncate")
	}
	binary.LittleEndian.PutUint64(body[lenOff:], payLen-8)
	body = body[:len(body)-8]
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// TestRestoreCorruptPayloadLeavesMachineUntouched: a snapshot whose
// container validates but whose last section fails to decode must be
// rejected with ErrCorrupt after the earlier sections were already decoded —
// and the live System must remain completely unmutated and runnable, proving
// restore is all-or-nothing rather than section-by-section.
func TestRestoreCorruptPayloadLeavesMachineUntouched(t *testing.T) {
	cfg := config.Default()
	equivBudgets(&cfg)
	_, data, _ := checkpointAt(t, cfg, []string{"swim"}, 0, true)
	bad := truncateLastSection(t, data)

	s, err := New(cfg, []string{"swim"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.RestoreSnapshot(bad); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("corrupt payload: got %v, want ErrCorrupt", err)
	}
	want, err := RunWorkload(context.Background(), cfg, []string{"swim"}, Options{})
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	got, err := s.Run()
	if err != nil {
		t.Fatalf("run after rejected restore: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("rejected restore left the machine perturbed")
	}
}
