package serialize

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
)

// mergeCell is the merge's per-index bookkeeping: a content hash for
// duplicate agreement checks and the first shard that supplied the
// cell. Holding hashes instead of payloads keeps the merge's memory
// O(cells · 32 bytes) regardless of cell size, so 10k-cell scale-tier
// stores merge without materializing any shard.
type mergeCell struct {
	hash  [sha256.Size]byte
	owner string
}

// MergeCheckpoints combines the per-shard checkpoint stores of a
// distributed sweep (runner.ShardSpec) into one complete store at
// outPath, which any single-process run of the same sweep can then
// resume from — loading every cell and recomputing nothing. Shards and
// output are stream stores, whatever their files are called.
//
// Every shard store must carry the given fingerprint (the one the
// unsharded sweep would use — shard identity lives in the file path, not
// the fingerprint), so shards of a differently-parameterized sweep are
// refused exactly as a stale resume would be. Cells present in more than
// one store must be byte-identical — shards are deterministic, so any
// disagreement means the stores belong to different sweeps. When total
// is positive the merged store must cover every cell index in
// [0, total); missing cells are reported by index so the operator knows
// which shard to re-run, and cells outside the range are rejected as
// belonging to a different sweep shape.
//
// The merge streams shards twice: a first pass verifies fingerprints,
// ranges, and duplicate agreement against content hashes; the second
// pass re-streams them in order and appends each index's first-seen
// cell (its recorded owner) to the output through a temp file renamed
// into place. Cell payloads are only ever held one at a time, and the
// output bytes are deterministic for a fixed shard list.
//
// It returns the number of cells written to the merged store.
func MergeCheckpoints(outPath, fingerprint string, total int, shardPaths []string) (int, error) {
	if len(shardPaths) == 0 {
		return 0, fmt.Errorf("serialize: merge: no shard stores given")
	}
	seen := map[int]mergeCell{}
	matched := "" // first store whose fingerprint matched, for diagnostics
	for _, path := range shardPaths {
		if _, err := os.Stat(path); err != nil {
			// iterate treats an absent file as an open error already, but the
			// stat keeps the mistyped-path diagnostic first and explicit.
			return 0, fmt.Errorf("serialize: merge: shard store %s: %w", path, err)
		}
		// Check the fingerprint before streaming cells so a mismatch names
		// both sweeps and both files: the operator's question is never "is
		// this store wrong" but "which shard came from the wrong sweep",
		// and answering it needs the offending path, the expected
		// fingerprint's provenance, and both fingerprint strings in full.
		got, err := peekFingerprint(path)
		if err != nil {
			return 0, fmt.Errorf("serialize: merge: %w", err)
		}
		if got != fingerprint {
			source := "the sweep flags given to the merge"
			if matched != "" {
				source = fmt.Sprintf("%s (and the sweep flags)", matched)
			}
			return 0, fmt.Errorf("serialize: merge: fingerprint mismatch: %s was written by sweep\n  %q\nbut %s identifies sweep\n  %q\n— this shard belongs to a different sweep; re-run it with matching flags or drop it from the merge",
				path, got, source, fingerprint)
		}
		matched = path
		_, err = iterate(path, func(k int, raw json.RawMessage) error {
			if total > 0 && (k < 0 || k >= total) {
				return fmt.Errorf("serialize: merge: %s holds cell %d outside the sweep's %d cells — wrong sweep parameters?",
					path, k, total)
			}
			h := sha256.Sum256(raw)
			if prev, dup := seen[k]; dup {
				if prev.hash != h {
					return fmt.Errorf("serialize: merge: cell %d differs between %s and %s — shards of different sweeps?",
						k, prev.owner, path)
				}
				return nil
			}
			seen[k] = mergeCell{hash: h, owner: path}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	if len(seen) == 0 {
		return 0, fmt.Errorf("serialize: merge: shard stores hold no cells")
	}
	if total > 0 && len(seen) < total {
		// Collect only the indices that will be printed: a near-empty
		// shard of a 100k-cell sweep is missing almost everything, and
		// materializing (or rendering) the full index list would turn the
		// diagnostic into a megabyte error string.
		const maxMissingListed = 20
		missing := make([]int, 0, maxMissingListed)
		for k := 0; k < total && len(missing) < maxMissingListed; k++ {
			if _, ok := seen[k]; !ok {
				missing = append(missing, k)
			}
		}
		count := total - len(seen)
		return 0, fmt.Errorf("serialize: merge: %d of %d cells missing (indices %s) — re-run the shards owning them",
			count, total, formatIndices(missing, count))
	}

	w, err := replaceStore(outPath, fingerprint, func(w *StoreWriter) error {
		for _, path := range shardPaths {
			_, err := iterate(path, func(k int, raw json.RawMessage) error {
				if seen[k].owner != path {
					return nil // a later duplicate; the owner already wrote it
				}
				return w.Append(k, raw)
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return len(seen), w.Close()
}

// formatIndices renders the listed indices, noting how many of the
// total are elided. The caller bounds ks itself (first N + count), so
// the rendered diagnostic stays small no matter how many cells the
// sweep is missing.
func formatIndices(ks []int, total int) string {
	var b bytes.Buffer
	for i, k := range ks {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", k)
	}
	if rest := total - len(ks); rest > 0 {
		fmt.Fprintf(&b, ", … %d more", rest)
	}
	return b.String()
}
