package serialize

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckpointLoadTruncationTorture truncates real multi-cell
// fingerprinted stores at every byte boundary and demands that Load
// either returns exactly the cells of the members closed before the cut
// — which only a cut landing on a member boundary may do — or fails
// with the per-file corruption diagnostic: never a panic, never a cell
// from a torn member. This is the failure a coordinator sees when a
// worker dies while its store is being copied off the machine, and the
// one a killed sweep's own store shows on resume. The sealed store has
// one member, so no strict prefix of it loads; the live store has one
// per Store.
func TestCheckpointLoadTruncationTorture(t *testing.T) {
	const fp = "fig4 seed=1 iters=100"
	for _, seal := range []bool{true, false} {
		t.Run(fmt.Sprintf("sealed=%v", seal), func(t *testing.T) {
			dir := t.TempDir()
			full := filepath.Join(dir, "full.ckpt")
			ck := NewCheckpoint(full)
			ck.SetFingerprint(fp)
			if _, err := ck.Load(); err != nil {
				t.Fatal(err)
			}
			// closedAt maps a file size at which a member ended to the
			// number of cells committed by then.
			closedAt := map[int]int{}
			for k := 0; k < 8; k++ {
				cell := fmt.Sprintf(`{"makespan":%d.5,"sched":"heft-%d"}`, 100+k, k)
				if err := ck.Store(k, json.RawMessage(cell)); err != nil {
					t.Fatal(err)
				}
				fi, err := os.Stat(full)
				if err != nil {
					t.Fatal(err)
				}
				closedAt[int(fi.Size())] = k + 1
			}
			if seal {
				if err := ck.Seal(); err != nil {
					t.Fatal(err)
				}
				closedAt = map[int]int{}
			}
			data, err := os.ReadFile(full)
			if err != nil {
				t.Fatal(err)
			}
			if len(data) < 100 {
				t.Fatalf("store implausibly small (%d bytes); torture would prove nothing", len(data))
			}
			closedAt[len(data)] = 8
			if !seal && len(closedAt) != 8 {
				t.Fatalf("live store closed %d members over 8 stores", len(closedAt))
			}

			trunc := filepath.Join(dir, "trunc.ckpt")
			for n := 0; n <= len(data); n++ {
				if err := os.WriteFile(trunc, data[:n], 0o644); err != nil {
					t.Fatal(err)
				}
				c := NewCheckpoint(trunc)
				c.SetFingerprint(fp)
				cells, err := c.Load()
				if want, boundary := closedAt[n]; boundary {
					if err != nil || len(cells) != want {
						t.Fatalf("cut on the member boundary at %d bytes: %d cells, want %d: %v", n, len(cells), want, err)
					}
					for k := 0; k < want; k++ {
						if _, ok := cells[k]; !ok {
							t.Fatalf("cut at %d bytes lost committed cell %d", n, k)
						}
					}
					continue
				}
				if err == nil {
					t.Fatalf("truncation to %d of %d bytes, inside a member, loaded cleanly (%d cells)", n, len(data), len(cells))
				}
				msg := err.Error()
				if !strings.Contains(msg, trunc) {
					t.Fatalf("truncation to %d bytes: error does not name the file: %v", n, err)
				}
				if !strings.Contains(msg, "corrupt or truncated") {
					t.Fatalf("truncation to %d bytes: error lacks the corruption diagnostic: %v", n, err)
				}
				if !strings.Contains(msg, fmt.Sprintf("(%d bytes)", n)) {
					t.Fatalf("truncation to %d bytes: error does not report the observed size: %v", n, err)
				}
			}
		})
	}
}

// TestPeekFingerprintMatchesLoadDiagnostics pins that the merge-path
// fingerprint probe reports corruption with the same per-file
// diagnostic Load gives, and reads fingerprints without mutating the
// store.
func TestPeekFingerprint(t *testing.T) {
	dir := t.TempDir()
	good := writeShard(t, dir, "good.json", "robustness seed=7", map[int]string{0: `1`})
	fp, err := peekFingerprint(good)
	if err != nil || fp != "robustness seed=7" {
		t.Fatalf("peek: %q, %v", fp, err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"cells":`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = peekFingerprint(bad)
	if err == nil || !strings.Contains(err.Error(), bad) || !strings.Contains(err.Error(), "corrupt or truncated") {
		t.Fatalf("peek of corrupt store: %v", err)
	}
	if _, err := peekFingerprint(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("peek of absent store succeeded")
	}
}

// TestMergeCheckpointsFingerprintMismatchNamesBothSweeps pins the
// operator-facing diagnostic: when a foreign shard sneaks into a merge,
// the error must carry the offending path, both full fingerprint
// strings, and — once another shard has matched — the path of a store
// that agrees with the expected sweep, so the operator can tell at a
// glance which file is the odd one out.
func TestMergeCheckpointsFingerprintMismatchNamesBothSweeps(t *testing.T) {
	dir := t.TempDir()
	const want = "fig4 seed=1 iters=100 rho=0.5"
	const got = "fig4 seed=1 iters=500 rho=0.5"
	s0 := writeShard(t, dir, "s0.json", want, map[int]string{0: `1`})
	s1 := writeShard(t, dir, "s1.json", got, map[int]string{1: `2`})
	out := filepath.Join(dir, "merged.json")

	_, err := MergeCheckpoints(out, want, 2, []string{s0, s1})
	if err == nil {
		t.Fatal("foreign shard accepted")
	}
	msg := err.Error()
	for _, needle := range []string{s1, want, got, s0} {
		if !strings.Contains(msg, needle) {
			t.Fatalf("mismatch error missing %q:\n%v", needle, err)
		}
	}
	if strings.Contains(msg[:strings.Index(msg, "was written by")], s0) {
		t.Fatalf("error blames the matching shard, not the foreign one:\n%v", err)
	}

	// When the *first* shard mismatches, no store has vouched for the
	// expected fingerprint yet — the provenance must fall back to the
	// merge's own flags rather than naming a store that was never read.
	_, err = MergeCheckpoints(out, want, 2, []string{s1, s0})
	if err == nil {
		t.Fatal("foreign first shard accepted")
	}
	msg = err.Error()
	for _, needle := range []string{s1, want, got, "flags"} {
		if !strings.Contains(msg, needle) {
			t.Fatalf("first-shard mismatch error missing %q:\n%v", needle, err)
		}
	}
	if strings.Contains(msg, s0) {
		t.Fatalf("error names a shard that was never fingerprint-checked:\n%v", err)
	}
}

// TestStoreDedup pins the coordinator's commit primitive: identical
// duplicate completions are no-ops, disagreeing ones are refused with
// the committed value left untouched.
func TestStoreDedup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dedup.ckpt")
	ck := NewCheckpoint(path)
	if _, err := ck.Load(); err != nil {
		t.Fatal(err)
	}
	stored, err := ck.StoreDedup(4, json.RawMessage(`{"v":1}`))
	if err != nil || !stored {
		t.Fatalf("first completion: stored=%v, %v", stored, err)
	}
	// A reclaimed lease re-delivering the same bytes must be silent.
	stored, err = ck.StoreDedup(4, json.RawMessage(`{"v":1}`))
	if err != nil || stored {
		t.Fatalf("identical duplicate: stored=%v, %v", stored, err)
	}
	// A disagreeing duplicate is a determinism violation, never an
	// overwrite.
	stored, err = ck.StoreDedup(4, json.RawMessage(`{"v":2}`))
	if err == nil || stored {
		t.Fatalf("conflicting duplicate accepted: stored=%v, %v", stored, err)
	}
	if !strings.Contains(err.Error(), "cell 4") || !strings.Contains(err.Error(), path) {
		t.Fatalf("conflict error lacks cell/path: %v", err)
	}
	cells, err := NewCheckpoint(path).Load()
	if err != nil || string(cells[4]) != `{"v":1}` {
		t.Fatalf("committed value disturbed: %v, %v", cells, err)
	}
}
