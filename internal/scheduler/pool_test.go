package scheduler

import (
	"sync"
	"testing"
)

// TestScratchPoolReuseAndFreshCount asserts what holds however
// sync.Pool behaves: under -race it drops one Put in four by design, and
// a GC may empty it. Fresh counts exactly the Gets that did not return a
// scratch handed out before, and over 32 Put/Get rounds at least one
// scratch comes back.
func TestScratchPoolReuseAndFreshCount(t *testing.T) {
	var p ScratchPool
	seen := map[*Scratch]bool{} // keeps every scratch alive, so addresses never repeat
	var fresh uint64
	reused := 0
	var s *Scratch
	for round := 0; round <= 32; round++ {
		if s != nil {
			p.Put(s)
		}
		if s = p.Get(); s == nil {
			t.Fatal("Get returned nil")
		}
		if seen[s] {
			reused++
		} else {
			seen[s] = true
			fresh++
		}
		if got := p.Fresh(); got != fresh {
			t.Fatalf("round %d: Fresh() = %d, but %d Gets returned a new scratch", round, got, fresh)
		}
	}
	if reused == 0 {
		t.Fatal("32 Put/Get rounds never handed back a released scratch")
	}
	p.Put(nil) // tolerated no-op
}

func TestScratchPoolConcurrentGetPut(t *testing.T) {
	var p ScratchPool
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s := p.Get()
				if s == nil {
					t.Error("nil scratch from pool")
					return
				}
				p.Put(s)
			}
		}()
	}
	wg.Wait()
	if p.Fresh() > 800 {
		t.Fatalf("fresh counter %d exceeds total Gets", p.Fresh())
	}
}
