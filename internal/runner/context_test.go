package runner

import (
	"context"
	"errors"
	"sync"
	"testing"
)

func TestMapPreCancelledContextRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	_, err := Map(8, Options{Workers: 2, Context: ctx}, func(k int) (int, error) {
		ran++
		return k, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Map on a dead context: %v, want context.Canceled", err)
	}
	if ran != 0 {
		t.Fatalf("%d cells ran after cancellation", ran)
	}
}

func TestMapCancellationStopsDispatchKeepsCompletedCells(t *testing.T) {
	const n = 50
	ctx, cancel := context.WithCancel(context.Background())
	store := newMemCheckpoint()
	var mu sync.Mutex
	ran := 0
	_, err := Map(n, Options{Workers: 1, Context: ctx, Checkpoint: store}, func(k int) (int, error) {
		mu.Lock()
		ran++
		if ran == 3 {
			cancel() // cancel mid-sweep; the in-flight cell still completes
		}
		mu.Unlock()
		return k * k, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Map returned %v, want context.Canceled", err)
	}
	if ran >= n {
		t.Fatalf("cancellation did not stop dispatch: all %d cells ran", n)
	}
	// Completed cells were checkpointed — a cancelled run leaves a
	// resumable store, never a corrupt one.
	cells, _ := store.Load()
	if len(cells) != ran {
		t.Fatalf("store holds %d cells, %d completed", len(cells), ran)
	}
	// Resuming the same sweep on the same store computes only the rest,
	// and the merged result equals an uncancelled run.
	ran2 := 0
	out, err := Map(n, Options{Workers: 1, Checkpoint: store}, func(k int) (int, error) {
		ran2++
		return k * k, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran2 != n-ran {
		t.Fatalf("resume recomputed %d cells, want %d", ran2, n-ran)
	}
	for k, v := range out {
		if v != k*k {
			t.Fatalf("cell %d = %d after resume, want %d", k, v, k*k)
		}
	}
}

func TestMapNilContextUnchanged(t *testing.T) {
	out, err := Map(4, Options{Workers: 2}, func(k int) (int, error) { return k + 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range out {
		if v != k+1 {
			t.Fatalf("cell %d = %d", k, v)
		}
	}
}
