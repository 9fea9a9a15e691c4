// Package snapshot defines the versioned binary container every simulation
// checkpoint is written in, plus the primitive encoder/decoder each stateful
// component's Snapshot/Restore seam builds on.
//
// A snapshot file is a single self-describing blob:
//
//	magic        8 bytes  "FBDSNAP\x00"
//	version      u32      format version (currently 2)
//	fingerprint  str      SHA-256 identity of (config, workload) — see Fingerprint
//	nsections    u32
//	section ×n   str tag, u64 payload length, payload bytes
//	crc          u32      IEEE CRC-32 over everything above
//
// All integers are little-endian; strings and byte slices are u64
// length-prefixed. The container fails closed: a reader refuses the whole
// file — before handing out a single section — on a bad magic, an
// unsupported version, a CRC mismatch, a truncated or over-long section
// table, or a fingerprint that does not match the machine being restored.
// Each refusal carries a typed sentinel error (ErrBadMagic, ErrVersion,
// ErrCorrupt, ErrFingerprint, ErrUnknownSection) so callers can map them to
// distinct user-facing outcomes (the fbdsim CLI exits with a dedicated code
// on fingerprint mismatch, mirroring the sweep journal's refusal UX).
package snapshot

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"fbdsim/internal/config"
)

// Version is the current snapshot format version. A file written by any
// other version is refused, never partially interpreted. History:
//
//	1  initial container
//	2  memtrace gauges/epochs gained PRE and column-access counters
//	   (live power telemetry)
const Version = 2

// magic identifies a snapshot file. The trailing NUL keeps it from being a
// prefix of any text format.
const magic = "FBDSNAP\x00"

// Typed refusal errors. Every decode failure wraps exactly one of these so
// callers can distinguish "wrong machine" from "damaged file" from "written
// by a newer build".
var (
	// ErrBadMagic: the file is not a snapshot at all.
	ErrBadMagic = errors.New("snapshot: bad magic")
	// ErrVersion: the file is a snapshot, but written in a format version
	// this build does not understand.
	ErrVersion = errors.New("snapshot: unsupported version")
	// ErrFingerprint: the snapshot belongs to a different (config,
	// workload) identity than the machine being restored.
	ErrFingerprint = errors.New("snapshot: fingerprint mismatch")
	// ErrCorrupt: truncation, CRC mismatch, or a structurally invalid
	// payload.
	ErrCorrupt = errors.New("snapshot: corrupt")
	// ErrUnknownSection: the section table names a section this build does
	// not know how to restore (or omits one it requires).
	ErrUnknownSection = errors.New("snapshot: unknown section")
)

// Fingerprint returns the canonical identity hash of one simulation: a
// SHA-256 over the JSON encodings of the full configuration and the
// benchmark list. It is the same canonicalization as the sweep engine's
// result-cache key (sweep.Key delegates here), so a snapshot's identity and
// the sweep/job identity of the run that produced it always agree.
func Fingerprint(cfg config.Config, benchmarks []string) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	// Config and []string cannot fail to encode.
	_ = enc.Encode(cfg)
	_ = enc.Encode(benchmarks)
	return hex.EncodeToString(h.Sum(nil))
}

// Encoder accumulates one section's payload. Appends cannot fail, but a
// component may flag state it cannot serialize (Fail); the Writer surfaces
// the first such flag and refuses to emit a file.
type Encoder struct {
	buf []byte
	err error
}

// Fail marks the section as unserializable. Components call it when they
// encounter state a snapshot cannot represent (e.g. a test-only closure
// waiter); the Writer's Err then refuses the whole snapshot.
func (e *Encoder) Fail(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf("snapshot: %s", fmt.Sprintf(format, args...))
	}
}

// Err returns the first Fail recorded on this section, if any.
func (e *Encoder) Err() error { return e.err }

// U64 appends v little-endian.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends v little-endian.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int appends v as an i64.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// Bool appends one byte (0 or 1).
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// F64 appends the IEEE-754 bits of v.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bytes appends a u64 length prefix then the bytes.
func (e *Encoder) Bytes(b []byte) {
	e.U64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends s length-prefixed.
func (e *Encoder) String(s string) { e.Bytes([]byte(s)) }

// I64s appends a u64 count then each element.
func (e *Encoder) I64s(vs []int64) {
	e.U64(uint64(len(vs)))
	for _, v := range vs {
		e.I64(v)
	}
}

// Decoder consumes one section's payload with a sticky error: the first
// failure (underflow, oversized length, caller-flagged structural mismatch)
// poisons every subsequent read, which then returns zero values. Callers
// run a whole Restore and check Err once at the end — a poisoned decoder
// can hand out garbage zeros, but the caller discards the half-restored
// machine, so no live state is ever left mutated by a corrupt file.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps a raw payload (tests and fuzzing; production decoders
// come from Reader.Section).
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the sticky error (nil if every read so far succeeded).
func (d *Decoder) Err() error { return d.err }

// Fail poisons the decoder with a structural-mismatch error. Components
// call it when a decoded count disagrees with the constructed machine shape.
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// Done reports an error if decoding failed or left unconsumed bytes — a
// length mismatch between writer and reader is corruption, not padding.
func (d *Decoder) Done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d trailing bytes in section", ErrCorrupt, len(d.buf)-d.off)
	}
	return nil
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.buf)-d.off < n {
		d.err = fmt.Errorf("%w: truncated payload", ErrCorrupt)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U64 reads a little-endian u64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an i64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads an i64 and narrows it to int.
func (d *Decoder) Int() int { return int(d.I64()) }

// Bool reads one byte; any value other than 0 or 1 is corruption.
func (d *Decoder) Bool() bool {
	b := d.take(1)
	if b == nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		d.err = fmt.Errorf("%w: invalid bool byte %d", ErrCorrupt, b[0])
		return false
	}
}

// F64 reads IEEE-754 bits.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Count reads an element count for a slice whose elements occupy at least
// elemBytes each, refusing counts the remaining payload cannot possibly
// hold — the guard that keeps a corrupt length from driving a huge
// allocation before the structural mismatch is noticed.
func (d *Decoder) Count(elemBytes int) int {
	n := d.U64()
	if d.err != nil {
		return 0
	}
	if elemBytes < 1 {
		elemBytes = 1
	}
	if n > uint64((len(d.buf)-d.off)/elemBytes) {
		d.err = fmt.Errorf("%w: count %d exceeds payload", ErrCorrupt, n)
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte slice (aliasing the underlying buffer).
func (d *Decoder) Bytes() []byte {
	n := d.U64()
	if n > uint64(len(d.buf)-d.off) {
		if d.err == nil {
			d.err = fmt.Errorf("%w: length %d exceeds payload", ErrCorrupt, n)
		}
		return nil
	}
	return d.take(int(n))
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.Bytes()) }

// I64s reads a counted i64 slice.
func (d *Decoder) I64s() []int64 {
	n := d.U64()
	if n > uint64(len(d.buf)-d.off)/8 {
		if d.err == nil {
			d.err = fmt.Errorf("%w: slice count %d exceeds payload", ErrCorrupt, n)
		}
		return nil
	}
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = d.I64()
	}
	return vs
}

// Writer assembles a snapshot file: begin sections in order, then Finish.
type Writer struct {
	fingerprint string
	tags        []string
	sections    []*Encoder
}

// NewWriter starts a snapshot for the machine identified by fingerprint.
func NewWriter(fingerprint string) *Writer {
	return &Writer{fingerprint: fingerprint}
}

// Section begins a new named section and returns its payload encoder.
func (w *Writer) Section(tag string) *Encoder {
	e := &Encoder{}
	w.tags = append(w.tags, tag)
	w.sections = append(w.sections, e)
	return e
}

// Err returns the first serialization failure flagged on any section.
func (w *Writer) Err() error {
	for _, e := range w.sections {
		if e.err != nil {
			return e.err
		}
	}
	return nil
}

// Finish serializes the container: header, section table, payloads, CRC.
// Callers must check Err first; Finish does not re-check it.
func (w *Writer) Finish() []byte {
	var out []byte
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint32(out, Version)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(w.fingerprint)))
	out = append(out, w.fingerprint...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(w.sections)))
	for i, e := range w.sections {
		out = binary.LittleEndian.AppendUint64(out, uint64(len(w.tags[i])))
		out = append(out, w.tags[i]...)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(e.buf)))
		out = append(out, e.buf...)
	}
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// Reader is a fully validated, parsed snapshot. Construction (Open)
// validates everything global — magic, version, CRC, fingerprint, section
// table bounds — so a Reader in hand means the file is structurally sound;
// only per-section payload decoding can still fail.
type Reader struct {
	tags     []string
	payloads [][]byte
	consumed []bool
}

// Open parses and validates data as a snapshot for the machine identified
// by fingerprint. It returns a typed error (see package errors) without
// yielding any payload when the file cannot be restored safely.
func Open(data []byte, fingerprint string) (*Reader, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, ErrBadMagic
	}
	// CRC covers everything including the version field, so check it
	// before trusting any header value — except that a future version may
	// legitimately follow a different layout after the version field, so a
	// version mismatch outranks a CRC mismatch when both fail.
	if len(data) < len(magic)+4+4 {
		return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	v := binary.LittleEndian.Uint32(data[len(magic):])
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	crcOK := binary.LittleEndian.Uint32(trailer) == crc32.ChecksumIEEE(body)
	if v != Version {
		return nil, fmt.Errorf("%w: file version %d, this build reads %d", ErrVersion, v, Version)
	}
	if !crcOK {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}

	d := NewDecoder(body[len(magic)+4:])
	fp := d.String()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if fp != fingerprint {
		return nil, fmt.Errorf("%w: snapshot is for %.12s…, this machine is %.12s…", ErrFingerprint, fp, fingerprint)
	}
	nb := d.take(4)
	if nb == nil {
		return nil, d.Err()
	}
	n := binary.LittleEndian.Uint32(nb)
	r := &Reader{}
	for i := uint32(0); i < n; i++ {
		tag := d.String()
		payload := d.Bytes()
		if d.Err() != nil {
			return nil, d.Err()
		}
		r.tags = append(r.tags, tag)
		r.payloads = append(r.payloads, payload)
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	r.consumed = make([]bool, len(r.tags))
	return r, nil
}

// Section returns the decoder for the named section, or an
// ErrUnknownSection-wrapped error naming the missing tag.
func (r *Reader) Section(tag string) (*Decoder, error) {
	for i, t := range r.tags {
		if t == tag && !r.consumed[i] {
			r.consumed[i] = true
			return NewDecoder(r.payloads[i]), nil
		}
	}
	return nil, fmt.Errorf("%w: required section %q missing", ErrUnknownSection, tag)
}

// Strict errors unless every section in the file was consumed: a snapshot
// carrying a section this build did not ask for was written by a machine
// with state this build cannot restore, so restoring the rest would be a
// silent partial restore.
func (r *Reader) Strict() error {
	for i, c := range r.consumed {
		if !c {
			return fmt.Errorf("%w: section %q not understood by this build", ErrUnknownSection, r.tags[i])
		}
	}
	return nil
}
