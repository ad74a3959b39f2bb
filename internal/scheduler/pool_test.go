package scheduler

import (
	"runtime"
	"sync"
	"testing"
)

// TestScratchPoolReuseAndFreshCount: Fresh counts exactly the Gets that
// did not return a scratch handed out before, and a Get after a Put
// always hands the released scratch back, garbage collections between
// them included.
func TestScratchPoolReuseAndFreshCount(t *testing.T) {
	var p ScratchPool
	seen := map[*Scratch]bool{} // keeps every scratch alive, so addresses never repeat
	var fresh uint64
	reused := 0
	var s *Scratch
	for round := 0; round <= 32; round++ {
		if s != nil {
			p.Put(s)
			runtime.GC()
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
	if reused != 32 {
		t.Fatalf("32 Put/Get rounds handed back a released scratch %d times", reused)
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
