package runner

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestParseShard(t *testing.T) {
	good := map[string]ShardSpec{
		"0/1": {Index: 0, Count: 1},
		"2/8": {Index: 2, Count: 8},
		"7/8": {Index: 7, Count: 8},
	}
	for text, want := range good {
		got, err := ParseShard(text)
		if err != nil || got != want {
			t.Fatalf("ParseShard(%q) = %v, %v; want %v", text, got, err, want)
		}
		if got.String() != text {
			t.Fatalf("ParseShard(%q).String() = %q", text, got.String())
		}
	}
	for _, text := range []string{"", "3", "a/b", "1.5/4", "-1/4", "4/4", "8/4", "0/0", "0/-2"} {
		if s, err := ParseShard(text); err == nil {
			t.Fatalf("ParseShard(%q) accepted as %v", text, s)
		}
	}
}

func TestShardSpecOwnership(t *testing.T) {
	var whole ShardSpec
	if whole.Enabled() {
		t.Fatal("zero ShardSpec is enabled")
	}
	for k := 0; k < 10; k++ {
		if !whole.Owns(k) {
			t.Fatalf("disabled shard does not own cell %d", k)
		}
	}
	// Every cell is owned by exactly one of the Count shards.
	const n, count = 23, 4
	owners := make([]int, n)
	for i := 0; i < count; i++ {
		s := ShardSpec{Index: i, Count: count}
		for k := 0; k < n; k++ {
			if s.Owns(k) {
				owners[k]++
			}
		}
	}
	for k, c := range owners {
		if c != 1 {
			t.Fatalf("cell %d owned by %d shards", k, c)
		}
	}
}

func TestMapShardedRunsOnlyOwnedCells(t *testing.T) {
	const n, count = 17, 3
	for index := 0; index < count; index++ {
		shard := ShardSpec{Index: index, Count: count}
		var mu sync.Mutex
		ran := map[int]bool{}
		out, err := Map(n, Options{Workers: 4, Include: shard.Owns}, func(k int) (float64, error) {
			mu.Lock()
			ran[k] = true
			mu.Unlock()
			return cellValue(k), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < n; k++ {
			if ran[k] != shard.Owns(k) {
				t.Fatalf("shard %v: cell %d ran=%v owns=%v", shard, k, ran[k], shard.Owns(k))
			}
			want := 0.0
			if shard.Owns(k) {
				want = cellValue(k) // global position seed, not shard-local
			}
			if out[k] != want {
				t.Fatalf("shard %v: cell %d = %v, want %v", shard, k, out[k], want)
			}
		}
	}
}

// TestMapShardedProgressCountsOwnedCells pins the Progress contract for
// shards: the total is the shard's cell count, not the sweep's.
func TestMapShardedProgressCountsOwnedCells(t *testing.T) {
	const n = 10
	shard := ShardSpec{Index: 1, Count: 4} // owns cells 1, 5, 9
	var calls [][2]int
	_, err := Map(n, Options{Workers: 1, Include: shard.Owns, Progress: func(done, total int) {
		calls = append(calls, [2]int{done, total})
	}}, func(k int) (int, error) { return k, nil })
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int{{0, 3}, {1, 3}, {2, 3}, {3, 3}} // baseline, then one per owned cell
	if len(calls) != len(want) {
		t.Fatalf("progress calls %v, want %v", calls, want)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("progress calls %v, want %v", calls, want)
		}
	}
}

// TestMapShardedProgressPrinterTotals wires the real ProgressPrinter —
// exactly as the CLIs' -progress flags do — into a sharded Map and pins
// the printed totals end to end: every line must report the shard's
// owned-cell count as its denominator, never the full sweep's. (The
// runner already computes the shard-local total; this guards the whole
// callback path a worker actually runs through.)
func TestMapShardedProgressPrinterTotals(t *testing.T) {
	const n = 10
	shard := ShardSpec{Index: 1, Count: 4} // owns cells 1, 5, 9
	var buf bytes.Buffer
	_, err := Map(n, Options{
		Workers:  2,
		Include:  shard.Owns,
		Progress: ProgressPrinter(&buf, "worker test "+shard.String()),
	}, func(k int) (int, error) { return k, nil })
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// The printer rate-limits mid-sweep lines, so the exact count depends
	// on how fast the cells land; the baseline and the completion line
	// always survive, and 4 (baseline + one per owned cell) is the cap.
	if len(lines) < 2 || len(lines) > 4 {
		t.Fatalf("printed %d lines, want 2-4 (baseline + rate-limited cells + completion):\n%s", len(lines), buf.String())
	}
	for i, line := range lines {
		if !strings.HasPrefix(line, "worker test 1/4: ") {
			t.Fatalf("line %d missing label: %q", i, line)
		}
		if !strings.Contains(line, "/3 cells") {
			t.Fatalf("line %d does not count against the shard's 3 owned cells: %q", i, line)
		}
		if strings.Contains(line, "/10") {
			t.Fatalf("line %d reports the unsharded total: %q", i, line)
		}
	}
	if lines[0] != "worker test 1/4: 0/3 cells" {
		t.Fatalf("baseline = %q, want the shard's starting position", lines[0])
	}
	last := lines[len(lines)-1]
	if !strings.Contains(last, "3/3 cells") || !strings.Contains(last, "done in") {
		t.Fatalf("final line %q does not report completion", last)
	}
}

// TestMapShardUnionResumesComplete is the in-process model of the
// distributed protocol: shards write disjoint cells to their stores, the
// union store resumes a full run without recomputing anything, and the
// result is bit-identical to the unsharded reference.
func TestMapShardUnionResumesComplete(t *testing.T) {
	const n, count = 29, 4
	want, err := Map(n, Options{Workers: 1}, func(k int) (float64, error) {
		return cellValue(k), nil
	})
	if err != nil {
		t.Fatal(err)
	}

	union := newMemCheckpoint()
	for index := 0; index < count; index++ {
		ck := newMemCheckpoint()
		_, err := Map(n, Options{Workers: 3, Include: ShardSpec{Index: index, Count: count}.Owns, Checkpoint: ck},
			func(k int) (float64, error) { return cellValue(k), nil })
		if err != nil {
			t.Fatal(err)
		}
		shard := ShardSpec{Index: index, Count: count}
		for k, raw := range ck.cells {
			if !shard.Owns(k) {
				t.Fatalf("shard %v stored foreign cell %d", shard, k)
			}
			if _, dup := union.cells[k]; dup {
				t.Fatalf("cell %d stored by two shards", k)
			}
			union.cells[k] = raw
		}
	}
	if len(union.cells) != n {
		t.Fatalf("union covers %d of %d cells", len(union.cells), n)
	}

	recomputed := false
	got, err := Map(n, Options{Workers: 2, Checkpoint: union}, func(k int) (float64, error) {
		recomputed = true
		return cellValue(k), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if recomputed {
		t.Fatal("resume from the union store recomputed cells")
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("cell %d = %v, want %v", k, got[k], want[k])
		}
	}
}

// TestMapShardedResumeFromMergedStore checks the reverse direction: a
// sharded run handed a complete (merged) store decodes even cells it
// does not own, so resuming a finished sweep is a no-op for any shard.
func TestMapShardedResumeFromMergedStore(t *testing.T) {
	const n = 12
	full := newMemCheckpoint()
	for k := 0; k < n; k++ {
		raw, _ := json.Marshal(cellValue(k))
		full.cells[k] = raw
	}
	ran := false
	out, err := Map(n, Options{Include: ShardSpec{Index: 0, Count: 3}.Owns, Checkpoint: full},
		func(k int) (float64, error) { ran = true; return 0, nil })
	if err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("complete store still recomputed cells")
	}
	for k := 0; k < n; k++ {
		if out[k] != cellValue(k) {
			t.Fatalf("cell %d = %v, want %v", k, out[k], cellValue(k))
		}
	}
}

func TestMapShardOwningNothing(t *testing.T) {
	// A shard past the cell count owns nothing and must return cleanly.
	out, err := Map(3, Options{Include: ShardSpec{Index: 7, Count: 8}.Owns}, func(k int) (int, error) {
		t.Fatalf("cell %d ran", k)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range out {
		if v != 0 {
			t.Fatalf("cell %d = %d", k, v)
		}
	}
}

func TestShardErrorMentionsForm(t *testing.T) {
	_, err := ParseShard("nope")
	if err == nil || !strings.Contains(err.Error(), "index/count") {
		t.Fatalf("unhelpful parse error: %v", err)
	}
}
