package serialize

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"slices"
	"sync"
)

// errStopIter halts an iterate pass that only needed the header.
var errStopIter = errors.New("serialize: stop iteration")

// Checkpoint is a file-backed store of per-cell sweep results — the
// persistence side of runner's checkpoint/resume hook. It is a map of
// the completed cells (raw JSON keyed by cell index) over one
// StoreWriter: the first write of a process replaces the file with
// everything the map holds (temp file, rename), every later Store
// appends one record and closes its gzip member. A cell is therefore on
// disk, readable by a fresh Load, when Store returns, and a killed sweep
// leaves at worst a torn final member, which Load refuses by name.
//
// The zero value is not usable; construct with NewCheckpoint. There is
// nothing to close: Seal and Remove release the file, and a Checkpoint
// dropped without either holds no unwritten data.
type Checkpoint struct {
	path string

	mu          sync.Mutex
	fingerprint string
	cells       map[int]json.RawMessage
	w           *StoreWriter // nil until this process first writes
	stored      int          // cells stored through this Checkpoint
}

// NewCheckpoint returns a checkpoint store persisted at path.
func NewCheckpoint(path string) *Checkpoint {
	return &Checkpoint{path: path}
}

// SetFingerprint binds the store to one specific sweep. The fingerprint
// — typically the sweep's parameters rendered as a string — is written
// into the file, and Load refuses a store whose fingerprint differs:
// without this, resuming with changed options (seed, iterations, grid
// contents of the same size) would silently mix stale cells into the
// new result. Set it before Load.
func (c *Checkpoint) SetFingerprint(fp string) {
	c.mu.Lock()
	c.fingerprint = fp
	c.mu.Unlock()
}

// Load implements runner.Checkpoint: it reads the store from disk (an
// absent file is an empty store) and returns the cells by index.
func (c *Checkpoint) Load() (map[int]json.RawMessage, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.loadLocked(); err != nil {
		return nil, err
	}
	return maps.Clone(c.cells), nil
}

func (c *Checkpoint) loadLocked() error {
	cells := map[int]json.RawMessage{}
	fp, err := iterate(c.path, func(index int, cell json.RawMessage) error {
		cells[index] = bytes.Clone(cell)
		return nil
	})
	switch {
	case os.IsNotExist(err):
	case err != nil:
		return err
	case fp != c.fingerprint:
		return differentSweepErr(c.path, fp, c.fingerprint)
	}
	c.cells = cells
	return nil
}

// Store implements runner.Checkpoint: it records one completed cell,
// which is on disk when Store returns. Store without a prior Load
// replaces whatever the file held.
//
// Duplicate completions are tolerated: a cell already present with
// byte-identical content is a no-op, not counted as stored, while one
// present with different bytes is an error. The sweep is deterministic,
// so a disagreeing duplicate came from a different sweep (or a corrupted
// worker) and must never silently overwrite the committed value. The
// coordinator protocol (internal/coord) commits through Store, where
// reclaimed leases and duplicated deliveries make redundant completions
// routine and concurrent, so the check and the commit are one critical
// section.
func (c *Checkpoint) Store(index int, cell json.RawMessage) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.cells[index]; ok {
		if !bytes.Equal(prev, cell) {
			return fmt.Errorf("serialize: checkpoint %s: duplicate completion of cell %d disagrees with the committed value (%d vs %d bytes) — results from a different sweep?",
				c.path, index, len(cell), len(prev))
		}
		return nil
	}
	if c.cells == nil {
		c.cells = map[int]json.RawMessage{}
	}
	c.cells[index] = cell
	c.stored++
	if c.w == nil {
		return c.rewriteLocked()
	}
	if err := c.w.Append(index, cell); err != nil {
		return err
	}
	return c.w.Flush()
}

// peekFingerprint reads only the fingerprint of the store at path,
// without binding a Checkpoint to it or validating its cells. Merge
// uses it to diagnose mixed-sweep shards with both fingerprints in
// hand; an unreadable or corrupt store fails with the same per-file
// diagnostics Load gives.
func peekFingerprint(path string) (string, error) {
	fp, err := iterate(path, func(int, json.RawMessage) error { return errStopIter })
	if err != nil && err != errStopIter {
		return "", err
	}
	return fp, nil
}

// Flush is a no-op: every Store is written through, so there is never
// anything left to persist.
func (c *Checkpoint) Flush() error { return nil }

// Seal rewrites the store in its canonical form — one gzip member, the
// header, then every cell ascending by index — and releases the file. A
// live store's members follow completion order; a sealed one depends
// only on the fingerprint and the cells, so two finished stores of one
// sweep compare equal as file bytes however their cells arrived. A
// store that was never loaded or stored into is loaded first, and a
// store holding no cells is still written: a shard owning zero cells
// must leave a fingerprinted file behind, or the merge would refuse the
// "missing" shard despite the others covering every cell.
func (c *Checkpoint) Seal() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cells == nil {
		if err := c.loadLocked(); err != nil {
			return err
		}
	}
	if err := c.rewriteLocked(); err != nil {
		return err
	}
	return c.closeLocked()
}

// Finish ends a sweep's use of the store, the one policy every CLI
// shares. A shard's output is its store, so a shard seals it. A complete
// run has its result in memory and removes the store, so a finished
// checkpoint is not mistaken for a resumable one — unless this process
// stored nothing: the store already held every cell (a `saga merge` or
// `saga coordinate` artifact, typically expensive to rebuild) and is
// kept for further renders.
func (c *Checkpoint) Finish(shard bool) (kept bool, err error) {
	if shard {
		return true, c.Seal()
	}
	c.mu.Lock()
	stored := c.stored
	c.mu.Unlock()
	if stored == 0 {
		return true, nil
	}
	return false, c.Remove()
}

// Remove deletes the store from disk.
func (c *Checkpoint) Remove() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cells = nil
	c.closeLocked()
	err := os.Remove(c.path)
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// rewriteLocked replaces the file with every held cell in canonical
// form — the only whole-store write — and leaves c.w appending to it.
// Callers hold c.mu.
func (c *Checkpoint) rewriteLocked() error {
	w, err := replaceStore(c.path, c.fingerprint, func(w *StoreWriter) error {
		for _, k := range slices.Sorted(maps.Keys(c.cells)) {
			if err := w.Append(k, c.cells[k]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	c.closeLocked()
	c.w = w
	return nil
}

// closeLocked releases the append writer, if any. Its members are
// closed after every Store, so only the descriptor is left to close.
func (c *Checkpoint) closeLocked() error {
	if c.w == nil {
		return nil
	}
	err := c.w.Close()
	c.w = nil
	return err
}
