package serialize

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"saga/internal/runner"
)

// writeShard builds a shard store at dir/name holding the given cells
// under the given fingerprint.
func writeShard(t *testing.T, dir, name, fingerprint string, cells map[int]string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	ck := NewCheckpoint(path)
	ck.SetFingerprint(fingerprint)
	if _, err := ck.Load(); err != nil {
		t.Fatal(err)
	}
	for k, v := range cells {
		if err := ck.Store(k, json.RawMessage(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.Seal(); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeLegacyShard builds the one-object JSON store earlier releases
// wrote — nothing outside the tests writes that layout any more.
func writeLegacyShard(t *testing.T, dir, name, fingerprint string, cells map[int]string) string {
	t.Helper()
	legacy := struct {
		Fingerprint string                     `json:"fingerprint,omitempty"`
		Cells       map[string]json.RawMessage `json:"cells"`
	}{fingerprint, map[string]json.RawMessage{}}
	for k, v := range cells {
		legacy.Cells[strconv.Itoa(k)] = json.RawMessage(v)
	}
	data, err := json.Marshal(legacy)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestMergeCheckpointsCombinesShards(t *testing.T) {
	dir := t.TempDir()
	const fp = "sweep seed=1"
	// 6 cells striped over 2 shards, runner.ShardSpec style.
	even := writeShard(t, dir, "s0.json", fp, map[int]string{0: `10`, 2: `12`, 4: `14`})
	odd := writeShard(t, dir, "s1.json", fp, map[int]string{1: `11`, 3: `13`, 5: `15`})
	out := filepath.Join(dir, "merged.json")
	n, err := MergeCheckpoints(out, fp, 6, []string{even, odd})
	if err != nil || n != 6 {
		t.Fatalf("merge: %d, %v", n, err)
	}
	merged := NewCheckpoint(out)
	merged.SetFingerprint(fp)
	cells, err := merged.Load()
	if err != nil || len(cells) != 6 {
		t.Fatalf("merged store: %v, %v", cells, err)
	}
	for k := 0; k < 6; k++ {
		if string(cells[k]) != fmt.Sprintf("1%d", k) {
			t.Fatalf("cell %d = %s", k, cells[k])
		}
	}
	// The merged store carries the sweep fingerprint, so a resume with
	// different parameters still refuses it.
	other := NewCheckpoint(out)
	other.SetFingerprint("sweep seed=2")
	if _, err := other.Load(); err == nil {
		t.Fatal("merged store accepted under a different fingerprint")
	}
}

func TestMergeCheckpointsReportsMissingCells(t *testing.T) {
	dir := t.TempDir()
	const fp = "sweep"
	only := writeShard(t, dir, "s0.json", fp, map[int]string{0: `1`, 2: `1`, 5: `1`})
	_, err := MergeCheckpoints(filepath.Join(dir, "m.json"), fp, 6, []string{only})
	if err == nil {
		t.Fatal("partial coverage accepted")
	}
	// The missing cells are named by index so the operator knows which
	// shards to re-run.
	for _, idx := range []string{"1", "3", "4"} {
		if !strings.Contains(err.Error(), idx) {
			t.Fatalf("missing cell %s not reported: %v", idx, err)
		}
	}
}

// TestMergeCheckpointsTruncatesMissingList pins the satellite fix: a
// near-empty shard of a huge sweep reports the first few missing
// indices plus a count, never an error string enumerating every absent
// cell of a 100k-cell grid.
func TestMergeCheckpointsTruncatesMissingList(t *testing.T) {
	dir := t.TempDir()
	const fp = "sweep"
	const total = 100_000
	only := writeShard(t, dir, "s0.json", fp, map[int]string{7: `1`, 99_999: `1`})
	_, err := MergeCheckpoints(filepath.Join(dir, "m.json"), fp, total, []string{only})
	if err == nil {
		t.Fatal("partial coverage accepted")
	}
	msg := err.Error()
	if len(msg) > 512 {
		t.Fatalf("missing-cells diagnostic is %d bytes — the list is not truncated:\n%.200s…", len(msg), msg)
	}
	for _, want := range []string{"99998 of 100000 cells missing", "0, 1, 2", "… 99978 more"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("diagnostic %q missing %q", msg, want)
		}
	}
}

func TestMergeCheckpointsRejectsConflictingDuplicates(t *testing.T) {
	dir := t.TempDir()
	const fp = "sweep"
	a := writeShard(t, dir, "a.json", fp, map[int]string{0: `1`, 1: `2`})
	b := writeShard(t, dir, "b.json", fp, map[int]string{1: `999`})
	if _, err := MergeCheckpoints(filepath.Join(dir, "m.json"), fp, 2, []string{a, b}); err == nil {
		t.Fatal("conflicting duplicate cell accepted")
	}
}

func TestMergeCheckpointsAllowsIdenticalDuplicates(t *testing.T) {
	// AppSpecificRun's benchmarking phase runs unsharded in every worker
	// (the PISA perturbation ranges need all of it), so shard stores
	// legitimately overlap there — with byte-identical cells.
	dir := t.TempDir()
	const fp = "sweep"
	a := writeShard(t, dir, "a.json", fp, map[int]string{0: `7`, 1: `8`})
	b := writeShard(t, dir, "b.json", fp, map[int]string{0: `7`, 1: `8`, 2: `9`})
	n, err := MergeCheckpoints(filepath.Join(dir, "m.json"), fp, 3, []string{a, b})
	if err != nil || n != 3 {
		t.Fatalf("identical duplicates rejected: %d, %v", n, err)
	}
}

func TestMergeCheckpointsRejectsForeignStores(t *testing.T) {
	dir := t.TempDir()
	a := writeShard(t, dir, "a.json", "sweep seed=1", map[int]string{0: `1`})
	// Wrong fingerprint.
	if _, err := MergeCheckpoints(filepath.Join(dir, "m.json"), "sweep seed=2", 1, []string{a}); err == nil {
		t.Fatal("foreign fingerprint accepted")
	}
	// Mistyped path must fail loudly, not shrink the merge.
	if _, err := MergeCheckpoints(filepath.Join(dir, "m.json"), "sweep seed=1", 1,
		[]string{a, filepath.Join(dir, "typo.json")}); err == nil {
		t.Fatal("absent shard store accepted")
	}
	// A cell beyond the sweep's size means the parameters are wrong.
	big := writeShard(t, dir, "big.json", "sweep seed=1", map[int]string{7: `1`})
	if _, err := MergeCheckpoints(filepath.Join(dir, "m.json"), "sweep seed=1", 2, []string{a, big}); err == nil {
		t.Fatal("out-of-range cell accepted")
	}
	// No shards, or shards with no cells at all, are operator errors.
	if _, err := MergeCheckpoints(filepath.Join(dir, "m.json"), "sweep", 0, nil); err == nil {
		t.Fatal("empty shard list accepted")
	}
}

// TestMergeCheckpointsAcceptsEmptyShardStore covers a shard that owns
// zero cells (more shards than cells): `saga worker` leaves behind a
// sealed, fingerprinted empty store, and the merge must accept it as
// long as the other shards cover the sweep.
func TestMergeCheckpointsAcceptsEmptyShardStore(t *testing.T) {
	dir := t.TempDir()
	const fp = "sweep"
	full := writeShard(t, dir, "full.json", fp, map[int]string{0: `1`, 1: `2`})
	empty := filepath.Join(dir, "empty.json")
	ck := NewCheckpoint(empty)
	ck.SetFingerprint(fp)
	if err := ck.Seal(); err != nil {
		t.Fatal(err)
	}
	n, err := MergeCheckpoints(filepath.Join(dir, "m.json"), fp, 2, []string{full, empty})
	if err != nil || n != 2 {
		t.Fatalf("empty shard store rejected: %d, %v", n, err)
	}
	// The empty store still carries the fingerprint: a foreign merge
	// refuses it.
	if _, err := MergeCheckpoints(filepath.Join(dir, "m2.json"), "other sweep", 2, []string{empty}); err == nil {
		t.Fatal("empty store accepted under a foreign fingerprint")
	}
}

// TestOffsetCheckpointWindows pins the multiplexing contract of
// runner.OffsetCheckpoint over one serialize.Checkpoint store: disjoint
// windows round-trip independently, and overlapping windows collide
// (last write wins) — which is why AppSpecificRun gives each phase a
// disjoint index range.
func TestOffsetCheckpointWindows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "windows.json")
	ck := NewCheckpoint(path)
	if _, err := ck.Load(); err != nil {
		t.Fatal(err)
	}
	w1 := runner.OffsetCheckpoint(ck, 0)
	w2 := runner.OffsetCheckpoint(ck, 4)
	for k := 0; k < 4; k++ {
		if err := w1.Store(k, json.RawMessage(fmt.Sprintf("%d", 100+k))); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 2; k++ {
		if err := w2.Store(k, json.RawMessage(fmt.Sprintf("%d", 200+k))); err != nil {
			t.Fatal(err)
		}
	}

	// Each window sees its own cells at local indices; the other
	// window's cells land outside [0, n) and are skipped by runner.Map's
	// stale-cell filter.
	cells, err := w2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if string(cells[0]) != "200" || string(cells[1]) != "201" {
		t.Fatalf("window 2 cells: %v", cells)
	}
	if string(cells[-4]) != "100" {
		t.Fatalf("window 1 cell not visible at shifted index: %v", cells)
	}

	// An overlapping window writes into window 1's range: local cell 0
	// at offset 2 is parent cell 2 — a collision, silently overwriting.
	overlap := runner.OffsetCheckpoint(ck, 2)
	if err := overlap.Store(0, json.RawMessage(`999`)); err != nil {
		t.Fatal(err)
	}
	cells, err = w1.Load()
	if err != nil {
		t.Fatal(err)
	}
	if string(cells[2]) != "999" {
		t.Fatalf("overlapping window did not collide: cell 2 = %s", cells[2])
	}
}
