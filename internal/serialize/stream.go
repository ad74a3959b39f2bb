package serialize

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
)

// The checkpoint store format.
//
// A store is an append-only sequence of gzip members whose decompressed
// content is JSON values: first a header object carrying the
// fingerprint, then one record per committed cell. Appends never rewrite
// earlier bytes, each Flush closes a gzip member so everything before it
// is durable and self-delimiting, and readers decode record by record
// without ever holding the whole store. StoreWriter is the only encoder
// and Iter the only decoder; Checkpoint, PeekFingerprint and
// MergeCheckpoints are built on the two.
//
// Stores written by earlier releases are one JSON object
// ({"fingerprint":…,"cells":{"<index>":…}}). Iter still reads them —
// anything not starting with the gzip magic bytes 0x1f 0x8b takes its
// legacy branch — and nothing writes them: the first Store of a resumed
// sweep rewrites a legacy store as a stream.

// streamHeader is the first JSON value of a store.
type streamHeader struct {
	Fingerprint string `json:"fingerprint"`
}

// streamRecord is one committed cell.
type streamRecord struct {
	Index int             `json:"i"`
	Cell  json.RawMessage `json:"cell"`
}

// isGzip reports whether data begins with the gzip magic bytes.
func isGzip(data []byte) bool {
	return len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b
}

// StoreWriter appends cells to a checkpoint store without holding prior
// contents. Creating one on a fresh path writes the fingerprint header;
// creating one on an existing store verifies it end to end and appends
// after the existing members. Append buffers into the current gzip
// member; Flush closes the member, making every cell appended so far
// durable and readable even if the process dies before Close.
// StoreWriter is not safe for concurrent use.
type StoreWriter struct {
	f *os.File
	// zw is the one compressor of the writer's lifetime, Reset onto f for
	// every member: a member per commit would otherwise allocate a fresh
	// deflate state per cell.
	zw     *gzip.Writer
	enc    *json.Encoder
	member bool // a gzip member is open
}

// NewStoreWriter opens (or creates) the store at path for appending
// cells under the given fingerprint. An existing store is read through
// once (nothing stays resident) before it is opened for appending: a
// torn final member would make every cell appended after it unreadable,
// so it is refused with the corrupt-store diagnostic, as are a store of
// a different sweep and a legacy JSON store.
func NewStoreWriter(path, fingerprint string) (*StoreWriter, error) {
	got, stream, err := scan(path, func(int, json.RawMessage) error { return nil })
	if os.IsNotExist(err) {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return nil, err
		}
		return startStore(f, fingerprint)
	}
	switch {
	case err != nil:
		return nil, err
	case !stream:
		return nil, fmt.Errorf("serialize: %s is a legacy JSON store — the streaming writer only appends to stream stores; resume onto it through a Checkpoint or merge it into a fresh path instead", path)
	case got != fingerprint:
		return nil, differentSweepErr(path, got, fingerprint)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return newStoreWriter(f), nil
}

func newStoreWriter(f *os.File) *StoreWriter {
	zw := gzip.NewWriter(f)
	return &StoreWriter{f: f, zw: zw, enc: json.NewEncoder(zw)}
}

// startStore writes the fingerprint header into the first member of the
// empty file f, which it closes on failure.
func startStore(f *os.File, fingerprint string) (*StoreWriter, error) {
	w := newStoreWriter(f)
	if err := w.put(streamHeader{Fingerprint: fingerprint}); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// put encodes one value into the current member, opening one if needed.
func (w *StoreWriter) put(v any) error {
	if !w.member {
		w.zw.Reset(w.f)
		w.member = true
	}
	return w.enc.Encode(v)
}

// replaceStore writes a whole store — the header, then whatever fill
// appends, in one member — to a temp file and renames it over path, so a
// crash leaves either the old store or the new one. It returns the
// writer still open on the renamed file for further appends.
func replaceStore(path, fingerprint string, fill func(*StoreWriter) error) (*StoreWriter, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, err
	}
	w, err := startStore(tmp, fingerprint)
	if err != nil {
		os.Remove(tmp.Name())
		return nil, err
	}
	if err = fill(w); err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		w.Close()
		os.Remove(tmp.Name())
		return nil, err
	}
	return w, nil
}

// Append commits one cell to the store. The write lands in the current
// gzip member and becomes durable at the next Flush (or Close).
func (w *StoreWriter) Append(index int, cell json.RawMessage) error {
	return w.put(streamRecord{Index: index, Cell: cell})
}

// Flush closes the current gzip member, so every cell appended so far
// survives a crash as a complete, readable store prefix. The next
// Append opens a new member (gzip readers concatenate members
// transparently).
func (w *StoreWriter) Flush() error {
	if !w.member {
		return nil
	}
	w.member = false
	return w.zw.Close()
}

// Close flushes the current member and closes the file.
func (w *StoreWriter) Close() error {
	err := w.Flush()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Iter streams the checkpoint store at path, calling fn for every cell
// in on-disk order (append order; ascending index for a sealed or legacy
// JSON store) and returning the store's fingerprint. The store is
// decoded record by record, so its full contents are never resident;
// fn's cell slice is only valid during the call. Iteration stops at fn's
// first error, which is returned verbatim. A truncated store (torn final
// member) fails with the corrupt-store diagnostic that names the file.
func Iter(path string, fn func(index int, cell json.RawMessage) error) (string, error) {
	fp, _, err := scan(path, fn)
	return fp, err
}

// scan is Iter, also reporting whether the store is a stream (as opposed
// to the legacy JSON object).
func scan(path string, fn func(index int, cell json.RawMessage) error) (fingerprint string, stream bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", false, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	if magic, _ := br.Peek(2); !isGzip(magic) {
		fp, err := scanLegacy(path, br, fn)
		return fp, false, err
	}
	zr, err := gzip.NewReader(br)
	if err != nil {
		return "", true, corruptErr(path, fileSize(f), err)
	}
	defer zr.Close()
	dec := json.NewDecoder(zr)
	var hdr streamHeader
	if err := dec.Decode(&hdr); err != nil {
		return "", true, corruptErr(path, fileSize(f), err)
	}
	var rec streamRecord
	for {
		rec = streamRecord{Cell: rec.Cell[:0]}
		if err := dec.Decode(&rec); err == io.EOF {
			return hdr.Fingerprint, true, nil
		} else if err != nil {
			return hdr.Fingerprint, true, corruptErr(path, fileSize(f), err)
		}
		if err := fn(rec.Index, rec.Cell); err != nil {
			return hdr.Fingerprint, true, err
		}
	}
}

// scanLegacy reads a store written by an earlier release: one JSON
// object, necessarily materialized, its cells visited ascending by
// index. This is the only code that knows the legacy layout.
func scanLegacy(path string, r io.Reader, fn func(index int, cell json.RawMessage) error) (string, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return "", err
	}
	type checkpointFile struct {
		Fingerprint string                     `json:"fingerprint,omitempty"`
		Cells       map[string]json.RawMessage `json:"cells"`
	}
	var cf checkpointFile
	if err := json.Unmarshal(data, &cf); err != nil {
		return "", corruptErr(path, int64(len(data)), err)
	}
	keys := make([]int, 0, len(cf.Cells))
	for key := range cf.Cells {
		// Only the spelling the old writer produced: "01" or "+1" would
		// alias cell 1 and leave the winner to map iteration order.
		k, err := strconv.Atoi(key)
		if err != nil || strconv.Itoa(k) != key {
			return "", fmt.Errorf("serialize: checkpoint %s: bad cell key %q", path, key)
		}
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if err := fn(k, cf.Cells[strconv.Itoa(k)]); err != nil {
			return cf.Fingerprint, err
		}
	}
	return cf.Fingerprint, nil
}

// corruptErr is the diagnostic for an unreadable store. Stores can
// arrive truncated or corrupt (a crash mid-append or mid-copy between
// machines, a full disk, a worker killed while streaming its store over
// the network): name the file and say what to do — never let a bad store
// surface as a bare decode failure three layers up.
func corruptErr(path string, size int64, err error) error {
	return fmt.Errorf("serialize: checkpoint %s is corrupt or truncated (%d bytes): %w — a crash mid-write? delete it (or restore it from the worker that wrote it) and re-run",
		path, size, err)
}

// differentSweepErr is the diagnostic for a store bound to another
// sweep's fingerprint.
func differentSweepErr(path, got, want string) error {
	return fmt.Errorf("serialize: checkpoint %s was written by a different sweep (%q, want %q) — delete it or pass a fresh path",
		path, got, want)
}

// fileSize best-effort stats an open file for diagnostics.
func fileSize(f *os.File) int64 {
	if fi, err := f.Stat(); err == nil {
		return fi.Size()
	}
	return -1
}
