package coord

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"saga/internal/experiments"
	"saga/internal/serialize"
)

// fakeClock drives lease expiry deterministically.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func testHub(t *testing.T, opts HubOptions) (*Hub, *httptest.Server) {
	t.Helper()
	h := NewHub(opts)
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return h, srv
}

// mountURL is where a mounted ledger's lease/heartbeat/complete
// endpoints live under the hub at root.
func mountURL(root string, c *Coordinator) string {
	return root + "/sweeps/" + SweepID(c.info.Fingerprint)
}

// mounted is one sweep on a test hub, over one of the two stores.
type mounted struct {
	root  string // the hub's URL
	base  string // root + the sweep's mount path
	c     *Coordinator
	store string    // checkpoint path
	mem   *MemStore // or the store Acquire returned
}

// stored reads the committed cells back from whichever store backs m.
func (m mounted) stored(t *testing.T) map[int]json.RawMessage {
	t.Helper()
	if m.mem != nil {
		cells, _ := m.mem.Load()
		return cells
	}
	cells, err := serializeLoad(m.store, m.c.info.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

// mountCheckpoint pre-mounts the cheap fig7 sweep (cells = N) on a
// checkpoint file, the way `saga coordinate -driver fig7 -checkpoint P`
// does.
func mountCheckpoint(t *testing.T, n int, opts HubOptions) mounted {
	t.Helper()
	store := filepath.Join(t.TempDir(), "coord.ckpt")
	h, srv := testHub(t, opts)
	c, err := h.Mount("fig7", experiments.SweepParams{N: n, Seed: 1}, serialize.NewCheckpoint(store))
	if err != nil {
		t.Fatal(err)
	}
	return mounted{root: srv.URL, base: mountURL(srv.URL, c), c: c, store: store}
}

// testCoord is mountCheckpoint for tests that speak the ledger protocol
// directly (nothing executes) on one clock: it returns the ledger, the
// base URL of its endpoints, and the store's path.
func testCoord(t *testing.T, n int, opts Options) (*Coordinator, string, string) {
	t.Helper()
	m := mountCheckpoint(t, n, HubOptions{Sweep: opts, Now: opts.Now})
	return m.c, m.base, m.store
}

func post[T any](t *testing.T, base, path string, body any) T {
	t.Helper()
	out, status := postStatus[T](t, base, path, body)
	if status != http.StatusOK {
		t.Fatalf("POST %s: status %d", path, status)
	}
	return out
}

func postStatus[T any](t *testing.T, base, path string, body any) (T, int) {
	t.Helper()
	var out T
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+path, "application/json", strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out, resp.StatusCode
}

func get[T any](t *testing.T, base, path string) T {
	t.Helper()
	var out T
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func cellJSON(k int) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"cell":%d}`, k))
}

func TestSweepEndpointIdentifiesSweep(t *testing.T) {
	m := mountCheckpoint(t, 6, HubOptions{})
	info := get[SweepInfo](t, m.root, "/sweep")
	sw, err := experiments.NewSweep(info.Name, info.Params)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Fingerprint != info.Fingerprint || sw.Cells != info.Cells || info.Cells != 6 {
		t.Fatalf("sweep info does not rebuild the coordinator's sweep: %+v", info)
	}
	if m.root+info.Path != m.base || info.ID != SweepID(sw.Fingerprint) {
		t.Fatalf("sweep info does not point at the mount %s: %+v", m.base, info)
	}
	if info.LeaseTTLMillis <= 0 {
		t.Fatalf("lease TTL not advertised: %+v", info)
	}
}

func TestLeaseLifecycleAndReclaim(t *testing.T) {
	clock := newFakeClock()
	ttl := 10 * time.Second
	c, srv, _ := testCoord(t, 6, Options{LeaseSize: 2, LeaseTTL: ttl, Now: clock.Now})

	l1 := post[LeaseResponse](t, srv, "/lease", LeaseRequest{Worker: "w1"})
	if l1.Lease == "" || len(l1.Cells) != 2 {
		t.Fatalf("first lease: %+v", l1)
	}
	l2 := post[LeaseResponse](t, srv, "/lease", LeaseRequest{Worker: "w2"})
	if l2.Lease == l1.Lease || len(l2.Cells) != 2 {
		t.Fatalf("second lease: %+v", l2)
	}
	for _, k := range l2.Cells {
		for _, j := range l1.Cells {
			if k == j {
				t.Fatalf("cell %d leased twice: %+v %+v", k, l1, l2)
			}
		}
	}

	// A live heartbeat keeps the lease past its original TTL.
	clock.Advance(ttl - time.Second)
	hb := post[HeartbeatResponse](t, srv, "/heartbeat", HeartbeatRequest{Worker: "w1", Lease: l1.Lease})
	if !hb.OK || hb.Cancel {
		t.Fatalf("renewal refused: %+v", hb)
	}
	clock.Advance(ttl - time.Second)
	// w1 renewed so its lease survives; w2 never did, so its cells are
	// reclaimed and re-leased to whoever asks next.
	l3 := post[LeaseResponse](t, srv, "/lease", LeaseRequest{Worker: "w3"})
	if len(l3.Cells) != 2 {
		t.Fatalf("reclaim lease: %+v", l3)
	}
	got := map[int]bool{l3.Cells[0]: true, l3.Cells[1]: true}
	for _, k := range l2.Cells {
		if !got[k] {
			t.Fatalf("expired lease's cell %d not re-leased: %+v", k, l3)
		}
	}
	// The dead lease's heartbeat now answers Cancel, not OK.
	hb = post[HeartbeatResponse](t, srv, "/heartbeat", HeartbeatRequest{Worker: "w2", Lease: l2.Lease})
	if hb.OK || !hb.Cancel {
		t.Fatalf("reaped lease heartbeat: %+v", hb)
	}
	// w1's renewed lease was never touched.
	st := c.Status()
	if st.Leased != 4 || st.Pending != 2 || st.Committed != 0 {
		t.Fatalf("status after reclaim: %+v", st)
	}
}

func TestCompleteCommitsIncrementallyAndFinishes(t *testing.T) {
	clock := newFakeClock()
	c, srv, storePath := testCoord(t, 4, Options{LeaseSize: 4, Now: clock.Now})
	l := post[LeaseResponse](t, srv, "/lease", LeaseRequest{Worker: "w1"})
	if len(l.Cells) != 4 {
		t.Fatalf("lease: %+v", l)
	}
	// Deliver half, then check the store already holds it — completed
	// ranges stream into the checkpoint, they do not wait for the end.
	post[CompleteResponse](t, srv, "/complete", CompleteRequest{
		Worker: "w1", Lease: l.Lease,
		Cells: map[int]json.RawMessage{0: cellJSON(0), 1: cellJSON(1)},
	})
	ck := serialize.NewCheckpoint(storePath)
	ck.SetFingerprint(c.info.Fingerprint)
	cells, err := ck.Load()
	if err != nil || len(cells) != 2 {
		t.Fatalf("mid-sweep store: %d cells, %v", len(cells), err)
	}
	// The lease was settled: its unfinished cells went back to pending
	// and are immediately re-leasable, not stranded until the TTL.
	l2 := post[LeaseResponse](t, srv, "/lease", LeaseRequest{Worker: "w1"})
	if len(l2.Cells) != 2 {
		t.Fatalf("re-lease of settled remainder: %+v", l2)
	}
	post[CompleteResponse](t, srv, "/complete", CompleteRequest{
		Worker: "w1", Lease: l2.Lease,
		Cells: map[int]json.RawMessage{2: cellJSON(2), 3: cellJSON(3)},
	})
	if l3 := post[LeaseResponse](t, srv, "/lease", LeaseRequest{Worker: "w1"}); !l3.Done {
		t.Fatalf("finished sweep still leasing: %+v", l3)
	}
	if err := c.Wait(nil); err != nil {
		t.Fatal(err)
	}
	cells, err = ck.Load()
	if err != nil || len(cells) != 4 {
		t.Fatalf("final store: %d cells, %v", len(cells), err)
	}
}

func TestRetryBackoffAndPoisoning(t *testing.T) {
	clock := newFakeClock()
	backoff := 4 * time.Second
	c, srv, _ := testCoord(t, 2, Options{
		LeaseSize: 2, MaxRetries: 3, RetryBackoff: backoff, Now: clock.Now,
	})
	fail := func(msg string) {
		l := post[LeaseResponse](t, srv, "/lease", LeaseRequest{Worker: "w1"})
		if len(l.Cells) != 2 {
			t.Fatalf("lease: %+v", l)
		}
		post[CompleteResponse](t, srv, "/complete", CompleteRequest{
			Worker: "w1", Lease: l.Lease,
			Cells:  map[int]json.RawMessage{1: cellJSON(1)},
			Failed: map[int]string{0: msg},
		})
	}
	fail("transient: attempt 1")
	// Inside the backoff window the cell is not leasable.
	if l := post[LeaseResponse](t, srv, "/lease", LeaseRequest{Worker: "w1"}); !l.Wait {
		t.Fatalf("cell leased during backoff: %+v", l)
	}
	clock.Advance(backoff)
	l := post[LeaseResponse](t, srv, "/lease", LeaseRequest{Worker: "w1"})
	if len(l.Cells) != 1 || l.Cells[0] != 0 {
		t.Fatalf("retry lease: %+v", l)
	}
	post[CompleteResponse](t, srv, "/complete", CompleteRequest{
		Worker: "w1", Lease: l.Lease, Failed: map[int]string{0: "transient: attempt 2"},
	})
	// Second failure: the backoff doubled, so the original delay is not
	// enough.
	clock.Advance(backoff)
	if l := post[LeaseResponse](t, srv, "/lease", LeaseRequest{Worker: "w1"}); !l.Wait {
		t.Fatalf("cell leased before doubled backoff elapsed: %+v", l)
	}
	clock.Advance(backoff)
	l = post[LeaseResponse](t, srv, "/lease", LeaseRequest{Worker: "w1"})
	if len(l.Cells) != 1 {
		t.Fatalf("third lease: %+v", l)
	}
	post[CompleteResponse](t, srv, "/complete", CompleteRequest{
		Worker: "w1", Lease: l.Lease, Failed: map[int]string{0: "deterministic: attempt 3"},
	})
	// Third failure exhausts MaxRetries: poisoned, and the sweep is done
	// — graceful degradation, not a stall.
	if l := post[LeaseResponse](t, srv, "/lease", LeaseRequest{Worker: "w1"}); !l.Done {
		t.Fatalf("poisoned sweep still leasing: %+v", l)
	}
	st := c.Status()
	if !st.Done || st.Poisoned != 1 || st.Committed != 1 {
		t.Fatalf("status: %+v", st)
	}
	err := c.Wait(nil)
	pe, ok := err.(*PoisonedError)
	if !ok {
		t.Fatalf("Wait: %v, want *PoisonedError", err)
	}
	if len(pe.Cells) != 1 || pe.Cells[0] != 0 || !strings.Contains(pe.Errs[0], "attempt 3") {
		t.Fatalf("poisoned report: %+v", pe)
	}
	if !strings.Contains(pe.Error(), "1 poisoned cells") {
		t.Fatalf("poisoned error text: %v", pe)
	}
}

func TestTransientFailureRecovers(t *testing.T) {
	clock := newFakeClock()
	c, srv, _ := testCoord(t, 1, Options{MaxRetries: 3, RetryBackoff: time.Second, Now: clock.Now})
	l := post[LeaseResponse](t, srv, "/lease", LeaseRequest{Worker: "w1"})
	post[CompleteResponse](t, srv, "/complete", CompleteRequest{
		Worker: "w1", Lease: l.Lease, Failed: map[int]string{0: "flaky disk"},
	})
	clock.Advance(time.Second)
	l = post[LeaseResponse](t, srv, "/lease", LeaseRequest{Worker: "w1"})
	if len(l.Cells) != 1 {
		t.Fatalf("retry lease: %+v", l)
	}
	post[CompleteResponse](t, srv, "/complete", CompleteRequest{
		Worker: "w1", Lease: l.Lease, Cells: map[int]json.RawMessage{0: cellJSON(0)},
	})
	if err := c.Wait(nil); err != nil {
		t.Fatalf("recovered sweep: %v", err)
	}
}

func TestLateCompletionOfReclaimedLease(t *testing.T) {
	clock := newFakeClock()
	ttl := 5 * time.Second
	c, srv, _ := testCoord(t, 2, Options{LeaseSize: 2, LeaseTTL: ttl, Now: clock.Now})
	l1 := post[LeaseResponse](t, srv, "/lease", LeaseRequest{Worker: "slow"})
	clock.Advance(ttl + time.Second)
	l2 := post[LeaseResponse](t, srv, "/lease", LeaseRequest{Worker: "fast"})
	if len(l2.Cells) != 2 {
		t.Fatalf("reclaimed lease: %+v", l2)
	}
	// The slow worker's completion lands after its lease died — still
	// committed (the bytes are position-determined, so they are right).
	post[CompleteResponse](t, srv, "/complete", CompleteRequest{
		Worker: "slow", Lease: l1.Lease,
		Cells: map[int]json.RawMessage{0: cellJSON(0), 1: cellJSON(1)},
	})
	st := c.Status()
	if st.Committed != 2 || !st.Done {
		t.Fatalf("late completion not committed: %+v", st)
	}
	// The fast worker finishes the same cells: byte-identical, deduped.
	post[CompleteResponse](t, srv, "/complete", CompleteRequest{
		Worker: "fast", Lease: l2.Lease,
		Cells: map[int]json.RawMessage{0: cellJSON(0), 1: cellJSON(1)},
	})
	if err := c.Wait(nil); err != nil {
		t.Fatal(err)
	}
}

func TestDisagreeingDuplicateIsFatal(t *testing.T) {
	clock := newFakeClock()
	ttl := 5 * time.Second
	c, srv, _ := testCoord(t, 2, Options{LeaseSize: 2, LeaseTTL: ttl, Now: clock.Now})
	l1 := post[LeaseResponse](t, srv, "/lease", LeaseRequest{Worker: "w1"})
	post[CompleteResponse](t, srv, "/complete", CompleteRequest{
		Worker: "w1", Lease: l1.Lease, Cells: map[int]json.RawMessage{0: cellJSON(0)},
	})
	// A different answer for a committed cell can only mean the worker
	// ran different parameters (or corrupted memory): refuse and park.
	_, status := postStatus[CompleteResponse](t, srv, "/complete", CompleteRequest{
		Worker: "w2", Lease: l1.Lease, Cells: map[int]json.RawMessage{0: json.RawMessage(`{"cell":999}`)},
	})
	if status != http.StatusConflict {
		t.Fatalf("disagreeing duplicate: status %d, want %d", status, http.StatusConflict)
	}
	err := c.Wait(nil)
	if err == nil || !strings.Contains(err.Error(), "disagrees") {
		t.Fatalf("Wait after determinism violation: %v", err)
	}
}

func TestCoordinatorResume(t *testing.T) {
	// A crashed coordinator restarted on its store must lease out only
	// the missing cells.
	dir := t.TempDir()
	storePath := filepath.Join(dir, "resume.ckpt")
	params := experiments.SweepParams{N: 5, Seed: 1}
	sw, err := experiments.NewSweep("fig7", params)
	if err != nil {
		t.Fatal(err)
	}
	ck := serialize.NewCheckpoint(storePath)
	ck.SetFingerprint(sw.Fingerprint)
	if _, err := ck.Load(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 2, 4} {
		if err := ck.Store(k, cellJSON(k)); err != nil {
			t.Fatal(err)
		}
	}
	h, hubSrv := testHub(t, HubOptions{Sweep: Options{LeaseSize: 8}})
	c, err := h.Mount("fig7", params, serialize.NewCheckpoint(storePath))
	if err != nil {
		t.Fatal(err)
	}
	srv := mountURL(hubSrv.URL, c)
	st := c.Status()
	if st.Committed != 3 || st.Pending != 2 {
		t.Fatalf("resumed status: %+v", st)
	}
	l := post[LeaseResponse](t, srv, "/lease", LeaseRequest{Worker: "w1"})
	if len(l.Cells) != 2 || l.Cells[0] != 1 || l.Cells[1] != 3 {
		t.Fatalf("resumed lease grants %v, want the missing [1 3]", l.Cells)
	}
	post[CompleteResponse](t, srv, "/complete", CompleteRequest{
		Worker: "w1", Lease: l.Lease,
		Cells: map[int]json.RawMessage{1: cellJSON(1), 3: cellJSON(3)},
	})
	if err := c.Wait(nil); err != nil {
		t.Fatal(err)
	}
	cells, err := serializeLoad(storePath, sw.Fingerprint)
	if err != nil || len(cells) != 5 {
		t.Fatalf("final store: %d cells, %v", len(cells), err)
	}
	// A store from different parameters must refuse to resume.
	if _, err := h.Mount("fig7", experiments.SweepParams{N: 5, Seed: 2}, serialize.NewCheckpoint(storePath)); err == nil {
		t.Fatal("foreign store resumed")
	}
}

func serializeLoad(path, fp string) (map[int]json.RawMessage, error) {
	ck := serialize.NewCheckpoint(path)
	ck.SetFingerprint(fp)
	return ck.Load()
}

func TestShuffledLeaseOrderCoversEveryCell(t *testing.T) {
	for _, seed := range []uint64{1, 7} {
		c, srv, _ := testCoord(t, 10, Options{LeaseSize: 3, ShuffleSeed: seed})
		granted := map[int]bool{}
		order := []int{}
		for {
			l := post[LeaseResponse](t, srv, "/lease", LeaseRequest{Worker: "w1"})
			if len(l.Cells) == 0 {
				t.Fatalf("seed %d: lease stalled: %+v", seed, l)
			}
			cells := map[int]json.RawMessage{}
			for _, k := range l.Cells {
				if granted[k] {
					t.Fatalf("seed %d: cell %d granted twice", seed, k)
				}
				granted[k] = true
				order = append(order, k)
				cells[k] = cellJSON(k)
			}
			post[CompleteResponse](t, srv, "/complete", CompleteRequest{Worker: "w1", Lease: l.Lease, Cells: cells})
			if len(granted) == 10 {
				break
			}
		}
		if err := c.Wait(nil); err != nil {
			t.Fatal(err)
		}
		inOrder := true
		for i := 1; i < len(order); i++ {
			if order[i] < order[i-1] {
				inOrder = false
			}
		}
		if inOrder {
			t.Fatalf("seed %d: shuffled lease order is sequential: %v", seed, order)
		}
	}
}
