package sweep

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// The journal is an append-only NDJSON checkpoint file: one header line
// identifying the sweep spec, then one line per successfully completed
// point, fsynced after each append. A sweep killed at any moment — even
// mid-write — resumes by replaying every fully written line and truncating
// the partial tail; replayed points are emitted without re-simulating, and
// because points are canonicalized before journaling, the merged result
// set is bit-identical to an uninterrupted run.

// ErrLocked reports that another live process holds the journal open.
// Exactly one writer may own a journal file at a time — concurrent
// appenders would interleave fsyncs and corrupt the replay stream — so a
// second opener fails closed with this sentinel (wrapped; test with
// errors.Is) instead of silently sharing the file.
var ErrLocked = errors.New("journal is locked by another process")

// journalHeader is the first line of every journal file.
type journalHeader struct {
	V           int    `json:"v"`
	Sweep       string `json:"sweep"`
	Fingerprint string `json:"fingerprint"`
}

const journalVersion = 1

// Journal is the append side; opening also replays existing points.
// Appends are serialized: worker goroutines checkpoint concurrently.
type Journal struct {
	mu sync.Mutex
	f  *os.File
}

// OpenJournal opens (or creates) the checkpoint file at path, replays the
// completed points it holds, truncates any partially written tail, and
// returns the journal positioned for appending. A journal written for a
// different spec fingerprint is refused rather than silently merged, and
// a journal already held open by another live process is refused with
// ErrLocked (the lock is advisory flock, released automatically when the
// holder dies — a crashed writer never wedges resumption).
func OpenJournal(path, name, fingerprint string) (*Journal, map[int]Point, error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, fmt.Errorf("sweep: create journal directory: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("sweep: open journal: %w", err)
	}
	if err := lockFile(f); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("sweep: journal %s: %w", path, err)
	}

	points := make(map[int]Point)
	r := bufio.NewReader(f)
	var valid int64 // offset past the last fully written line
	sawHeader := false
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			// No trailing newline: the process died mid-write. The
			// partial line is discarded and overwritten below.
			break
		}
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("sweep: read journal: %w", err)
		}
		if !sawHeader {
			var h journalHeader
			if err := json.Unmarshal(line, &h); err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("sweep: corrupt journal header in %s: %w", path, err)
			}
			if h.V != journalVersion {
				f.Close()
				return nil, nil, fmt.Errorf("sweep: journal %s has version %d, want %d", path, h.V, journalVersion)
			}
			if h.Fingerprint != fingerprint {
				f.Close()
				return nil, nil, fmt.Errorf("sweep: journal %s belongs to a different sweep spec (fingerprint %.12s…, want %.12s…)", path, h.Fingerprint, fingerprint)
			}
			sawHeader = true
			valid += int64(len(line))
			continue
		}
		var p Point
		if err := json.Unmarshal(line, &p); err != nil {
			// A torn or corrupt record: everything before it is good,
			// it and everything after are dropped and recomputed.
			break
		}
		points[p.Index] = p
		valid += int64(len(line))
	}

	// Drop the invalid tail (if any) and position for appending.
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("sweep: truncate journal: %w", err)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("sweep: seek journal: %w", err)
	}

	j := &Journal{f: f}
	if !sawHeader {
		if err := j.writeLine(journalHeader{V: journalVersion, Sweep: name, Fingerprint: fingerprint}); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	return j, points, nil
}

// Append checkpoints one completed point. Journal failures are deliberately
// non-fatal to the sweep — the point was computed and is emitted either
// way; the worst outcome of a failed append is recomputation on resume.
func (j *Journal) Append(p Point) {
	j.mu.Lock()
	defer j.mu.Unlock()
	_ = j.writeLine(p)
}

func (j *Journal) writeLine(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("sweep: encode journal line: %w", err)
	}
	b = append(b, '\n')
	if _, err := j.f.Write(b); err != nil {
		return fmt.Errorf("sweep: write journal: %w", err)
	}
	// One fsync per point: a completed point survives any later crash.
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("sweep: sync journal: %w", err)
	}
	return nil
}

// Close syncs and releases the journal (and its writer lock).
func (j *Journal) Close() {
	j.mu.Lock()
	defer j.mu.Unlock()
	_ = j.f.Sync()
	_ = j.f.Close()
}
