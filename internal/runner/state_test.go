package runner

import (
	"encoding/json"
	"sync"
	"testing"
)

// memCheckpoint is an in-memory Checkpoint for tests.
type memCheckpoint struct {
	mu    sync.Mutex
	cells map[int]json.RawMessage
}

func newMemCheckpoint() *memCheckpoint {
	return &memCheckpoint{cells: map[int]json.RawMessage{}}
}

func (m *memCheckpoint) Load() (map[int]json.RawMessage, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[int]json.RawMessage, len(m.cells))
	for k, v := range m.cells {
		out[k] = v
	}
	return out, nil
}

func (m *memCheckpoint) Store(index int, cell json.RawMessage) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cells[index] = cell
	return nil
}

// TestMapStatePerWorkerState proves every worker goroutine receives its
// own state value and that state reuse does not leak across cells of
// different workers: each state records the cells it served, and the
// union must partition [0, n).
func TestMapStatePerWorkerState(t *testing.T) {
	type state struct{ cells []int }
	var mu sync.Mutex
	var states []*state
	n := 64
	out, err := MapState(n, Options{Workers: 4},
		func() *state {
			s := &state{}
			mu.Lock()
			states = append(states, s)
			mu.Unlock()
			return s
		},
		func(k int, s *state) (int, error) {
			s.cells = append(s.cells, k)
			return k * k, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range out {
		if v != k*k {
			t.Fatalf("cell %d = %d, want %d", k, v, k*k)
		}
	}
	if len(states) != 4 {
		t.Fatalf("newState ran %d times, want once per worker (4)", len(states))
	}
	seen := make([]bool, n)
	for _, s := range states {
		for _, k := range s.cells {
			if seen[k] {
				t.Fatalf("cell %d served by two workers", k)
			}
			seen[k] = true
		}
	}
	for k, ok := range seen {
		if !ok {
			t.Fatalf("cell %d never served", k)
		}
	}
}
