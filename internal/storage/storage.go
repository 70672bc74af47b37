// Package storage implements the persistent storage service of §2.2.1
// as two-copy atomic stable storage with checksums.
//
// The classic construction: every logical record is kept as two physical
// copies, each carrying a version number and a CRC. A write updates copy
// A, then copy B; a crash between the two leaves one valid newer copy
// and one valid older copy — recovery picks the newest valid one, so a
// record is never lost or torn. Writes take simulated time (two media
// operations), during which a crash may be injected to exercise
// recovery. Passive replication uses this service for checkpoints.
package storage

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"

	"hades/internal/eventq"
	"hades/internal/simkern"
	"hades/internal/vtime"
)

// copyRec is one physical copy of a record.
type copyRec struct {
	version uint64
	data    []byte
	crc     uint32
	valid   bool // false models a torn write
}

func (c *copyRec) ok() bool {
	return c.valid && c.data != nil && crc32.ChecksumIEEE(c.data) == c.crc
}

// Store is one node's stable storage device.
type Store struct {
	eng      *simkern.Engine
	writeLat vtime.Duration // latency per physical copy write
	records  map[string]*[2]copyRec
	crashed  bool

	// Writes and Recoveries count operations for the harness.
	Writes     int
	Recoveries int
}

// New creates a stable store with the given per-copy write latency.
// The store does not keep its node argument: callers key their stores
// by node themselves (bench/layers pins the three-argument signature).
func New(eng *simkern.Engine, _ int, writeLat vtime.Duration) *Store {
	return &Store{
		eng:      eng,
		writeLat: writeLat,
		records:  make(map[string]*[2]copyRec),
	}
}

// Errors.
var (
	// ErrCrashed is returned for operations on a crashed store.
	ErrCrashed = errors.New("storage: store is crashed")
	// ErrNotFound is returned when no valid copy of a key exists.
	ErrNotFound = errors.New("storage: record not found")
)

// Write durably stores value under key, calling done when both copies
// hit the medium. value is serialised with encoding/json (stdlib-only
// persistence format). If the store crashes mid-write the record stays
// recoverable at its previous version.
func (s *Store) Write(key string, value any, done func(error)) {
	if s.crashed {
		done(ErrCrashed)
		return
	}
	data, err := json.Marshal(value)
	if err != nil {
		done(fmt.Errorf("storage: encoding %q: %w", key, err))
		return
	}
	rec := s.records[key]
	if rec == nil {
		rec = &[2]copyRec{}
		s.records[key] = rec
	}
	newVersion := maxVersion(rec) + 1
	// Copy A first...
	s.eng.Arm(s.eng.Now().Add(s.writeLat), eventq.ClassApp, eventq.Func(func() {
		if s.crashed {
			rec[0].valid = false // torn write on copy A
			done(ErrCrashed)
			return
		}
		rec[0] = copyRec{version: newVersion, data: data, crc: crc32.ChecksumIEEE(data), valid: true}
		// ...then copy B.
		s.eng.Arm(s.eng.Now().Add(s.writeLat), eventq.ClassApp, eventq.Func(func() {
			if s.crashed {
				rec[1].valid = false
				done(ErrCrashed)
				return
			}
			rec[1] = copyRec{version: newVersion, data: data, crc: crc32.ChecksumIEEE(data), valid: true}
			s.Writes++
			done(nil)
		}), 0)
	}), 0)
}

// Read returns the newest valid copy of key, decoded into out (a
// pointer), running recovery over the two copies.
func (s *Store) Read(key string, out any) error {
	if s.crashed {
		return ErrCrashed
	}
	rec := s.records[key]
	if rec == nil {
		return fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	best := -1
	var bestVer uint64
	for i := range rec {
		if rec[i].ok() && (best == -1 || rec[i].version > bestVer) {
			best, bestVer = i, rec[i].version
		}
	}
	if best == -1 {
		return fmt.Errorf("%w: %q (no valid copy)", ErrNotFound, key)
	}
	if rec[0].version != rec[1].version || !rec[0].ok() || !rec[1].ok() {
		s.Recoveries++
	}
	return json.Unmarshal(rec[best].data, out)
}

// Crash marks the store crashed: in-flight writes tear, operations fail.
func (s *Store) Crash() { s.crashed = true }

// recover brings the store back; torn copies are repaired from their
// surviving sibling on the next Read.
func (s *Store) recover() { s.crashed = false }

// isCrashed reports the crash state.
func (s *Store) isCrashed() bool { return s.crashed }

func maxVersion(rec *[2]copyRec) uint64 {
	v := rec[0].version
	if rec[1].version > v {
		v = rec[1].version
	}
	return v
}
