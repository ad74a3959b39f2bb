package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sync"
	"time"

	"saga/internal/datasets"
	"saga/internal/graph"
	"saga/internal/schedule"
	"saga/internal/scheduler"
	"saga/internal/serialize"
	"saga/internal/wfc"
)

// The two serve workloads drive a child `saga serve` (default flags)
// over loopback HTTP in a closed loop: W clients, one keep-alive
// connection each, every client sending its next request only after it
// has read and verified the previous response. Closed loop because the
// callers of a scheduling daemon wait for their schedule.

// request is one POST /v1/schedule body and the exact response expected.
type request struct {
	body, want []byte
}

// scheduleRequest and scheduleResponse are the /v1/schedule wire
// contract, spelled out here so the harness depends on the HTTP API and
// not on the daemon's Go types.
type scheduleRequest struct {
	Scheduler string          `json:"scheduler"`
	Instance  json.RawMessage `json:"instance,omitempty"`
	WfC       json.RawMessage `json:"wfc,omitempty"`
	Link      float64         `json:"link,omitempty"`
	Nodes     int             `json:"nodes,omitempty"`
}

type scheduleResponse struct {
	Scheduler string          `json:"scheduler"`
	Makespan  float64         `json:"makespan"`
	Schedule  json.RawMessage `json:"schedule"`
}

// wfcNodes and wfcLink are the import knobs sent with a wfformat body
// that lists no machines: the daemon builds a unit network from them.
const (
	wfcNodes = 4
	wfcLink  = 1.0
)

// expected computes, through the library, the response the daemon must
// return for inst under the named scheduler.
func expected(name string, inst *graph.Instance, scr *scheduler.Scratch, out *schedule.Schedule) ([]byte, error) {
	s, err := scheduler.New(name)
	if err != nil {
		return nil, err
	}
	if err := scheduler.ScheduleInto(s, inst, scr, out); err != nil {
		return nil, err
	}
	raw, err := serialize.MarshalSchedule(out)
	if err != nil {
		return nil, err
	}
	want, err := json.Marshal(scheduleResponse{Scheduler: s.Name(), Makespan: out.Makespan(), Schedule: raw})
	if err != nil {
		return nil, err
	}
	return append(want, '\n'), nil
}

// wfcInstance imports a wfformat document the way the daemon does for a
// body without machines: unit network of wfcNodes nodes, uniform link.
func wfcInstance(doc []byte) (*graph.Instance, error) {
	parsed, err := wfc.Parse(doc)
	if err != nil {
		return nil, err
	}
	g, err := parsed.ToTaskGraph()
	if err != nil {
		return nil, err
	}
	net := graph.NewNetwork(wfcNodes)
	for u := 0; u < wfcNodes; u++ {
		for v := u + 1; v < wfcNodes; v++ {
			net.SetLink(u, v, wfcLink)
		}
	}
	inst := graph.NewInstance(g, net)
	return inst, inst.Validate()
}

// hotPoolSeed draws the instances of serve_hot.
const hotPoolSeed = 1

// buildRequests makes a serve workload's inputs and expected outputs
// from the seed. Hot: hotDraws instances of each of the nine workflow
// recipes (54 at full size, under the daemon's 64-entry cache), each
// under every scheduler of the rotation, visited in an order shuffled by
// the seed. The instances themselves are the same for every seed:
// request cost follows instance size, and 54 draws are too few for their
// mean size to be steady from seed to seed (with 18 drawn per seed
// work_per_s spread 21 % over ten seeds), the same input noise the sweep
// workloads avoid with their child-seed pools. Cold: coldBodies distinct
// instances drawn from the seed, recipes and schedulers rotating, every
// second one sent as a wfformat document.
func buildRequests(sz sizes, hot bool, seed uint64) ([]request, error) {
	recipes := datasets.WorkflowNames
	perRecipe, drawSeed := sz.hotDraws, uint64(hotPoolSeed)
	if !hot {
		perRecipe, drawSeed = (sz.coldBodies+len(recipes)-1)/len(recipes), seed
	}
	draws := make([][]*graph.Instance, len(recipes))
	for i, name := range recipes {
		var err error
		if draws[i], err = datasets.Dataset(name, perRecipe, drawSeed); err != nil {
			return nil, err
		}
	}
	scr := scheduler.NewScratch()
	var out schedule.Schedule
	var reqs []request
	add := func(inst *graph.Instance, asWfC bool, schedName string) error {
		req := scheduleRequest{Scheduler: schedName}
		var err error
		if asWfC {
			if req.WfC, err = wfc.FromTaskGraph("bench", inst.Graph).Marshal(); err != nil {
				return err
			}
			req.Link, req.Nodes = wfcLink, wfcNodes
			if inst, err = wfcInstance(req.WfC); err != nil {
				return err
			}
		} else if req.Instance, err = serialize.MarshalInstance(inst); err != nil {
			return err
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		want, err := expected(schedName, inst, scr, &out)
		if err != nil {
			return err
		}
		reqs = append(reqs, request{body: body, want: want})
		return nil
	}
	if hot {
		for _, schedName := range sz.serveSchedulers {
			for _, insts := range draws {
				for _, inst := range insts {
					if err := add(inst, false, schedName); err != nil {
						return nil, err
					}
				}
			}
		}
		rand.New(rand.NewPCG(seed, 0)).Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
		return reqs, nil
	}
	for i := 0; i < sz.coldBodies; i++ {
		inst := draws[i%len(recipes)][i/len(recipes)]
		if err := add(inst, i%2 == 1, sz.serveSchedulers[i%len(sz.serveSchedulers)]); err != nil {
			return nil, err
		}
	}
	return reqs, nil
}

// sliceLen is the length of one slice of a serve window: short enough
// for the calibration runs on either side to see the host as the slice
// saw it, long enough for them to cost little beside it.
const sliceLen = time.Second

// loadStats is one closed-loop phase.
type loadStats struct {
	lat       []float64 // seconds, verified responses only
	attempted int
	failed    int
	failures  []string // the first few reasons
	wall      time.Duration
}

// loader is the closed loop: one keep-alive connection per client, kept
// across phases, and each client's place in the request list.
type loader struct {
	url     string
	reqs    []request
	clients []*http.Client
	next    []int
}

func newLoader(url string, reqs []request, clients int) *loader {
	l := &loader{url: url, reqs: reqs}
	for c := 0; c < clients; c++ {
		tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
		l.clients = append(l.clients, &http.Client{Transport: tr})
		l.next = append(l.next, c)
	}
	return l
}

func (l *loader) close() {
	for _, c := range l.clients {
		c.CloseIdleConnections()
	}
}

// run drives the loop for d, or until every client has sent limit
// requests if limit is not 0: client c sends requests c, c+W, c+2W, ...
// (cyclically, carrying on where the previous phase stopped), so
// together the clients walk the request list in order. A response counts
// only if it is a 200 whose body equals the expected bytes.
func (l *loader) run(d time.Duration, limit int) loadStats {
	per := make([]loadStats, len(l.clients))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c, client := range l.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &per[c]
			var buf bytes.Buffer
			fail := func(reason string) {
				st.failed++
				if len(st.failures) < 3 {
					st.failures = append(st.failures, reason)
				}
			}
			for ; time.Now().Before(deadline) && (limit == 0 || st.attempted < limit); l.next[c] += len(l.clients) {
				i := l.next[c] % len(l.reqs)
				rq := l.reqs[i]
				st.attempted++
				t0 := time.Now()
				resp, err := client.Post(l.url+"/v1/schedule", "application/json", bytes.NewReader(rq.body))
				if err != nil {
					fail(err.Error())
					continue
				}
				buf.Reset()
				_, err = io.Copy(&buf, resp.Body)
				resp.Body.Close()
				lat := time.Since(t0)
				switch {
				case err != nil:
					fail(err.Error())
				case resp.StatusCode != http.StatusOK:
					fail(fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes())))
				case !bytes.Equal(buf.Bytes(), rq.want):
					fail(fmt.Sprintf("request %d: response differs from the library's schedule", i))
				default:
					st.lat = append(st.lat, lat.Seconds())
				}
			}
		}()
	}
	wg.Wait()
	out := loadStats{wall: time.Since(start)}
	for _, st := range per {
		out.add(st)
	}
	return out
}

// add folds another phase, or another client's part of one, into st.
func (st *loadStats) add(o loadStats) {
	st.lat = append(st.lat, o.lat...)
	st.attempted += o.attempted
	st.failed += o.failed
	if len(st.failures) < 5 {
		st.failures = append(st.failures, o.failures...)
	}
}

// load is one phase on connections of its own.
func load(url string, reqs []request, clients int, d time.Duration) loadStats {
	l := newLoader(url, reqs, clients)
	defer l.close()
	return l.run(d, 0)
}

// serveStats is what the daemon's own /metrics said after the run, plus
// the benchmark process's share of the CPU the run used.
type serveStats struct {
	hitShare       float64
	tableReuse     float64 // table reuses over cache hits
	freshScratches float64
	rejected       float64
	serverP50MS    float64
	serverP99MS    float64
	clientCPUShare float64
}

// metricsDoc is the part of GET /metrics the harness reads.
type metricsDoc struct {
	Endpoints map[string]struct {
		P50MS float64 `json:"p50_ms"`
		P99MS float64 `json:"p99_ms"`
	} `json:"endpoints"`
	Cache struct {
		Hits        float64 `json:"hits"`
		Misses      float64 `json:"misses"`
		TableReuses float64 `json:"table_reuses"`
	} `json:"cache"`
	Pool struct {
		FreshScratches float64 `json:"fresh_scratches"`
	} `json:"pool"`
	Admission struct {
		Rejected float64 `json:"rejected"`
	} `json:"admission"`
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// bootServe starts `saga serve` on a free port and waits until /healthz
// answers.
func bootServe(e *env) (*daemon, error) {
	d, err := e.spawn(true, e.saga, "serve", "-addr", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var health map[string]bool
	if err := getJSON(d.url+"/healthz", &health); err != nil {
		d.stop()
		return nil, fmt.Errorf("saga serve not healthy: %w", err)
	}
	return d, nil
}

// runServe is serve_hot (hot = true) and serve_cold. One set-up
// repetition is: build inputs and expected outputs, boot the daemon,
// warm up; the last repetition's daemon serves the timed window, slice
// by slice with a calibration kernel run between slices (the loop pauses
// for it, connections stay open).
func runServe(e *env, hot bool, seed uint64, window time.Duration, setupReps int) (*result, error) {
	r := &result{host: newHostSpeed()}
	var d *daemon
	var l *loader
	for i := 0; i < setupReps; i++ {
		if d != nil {
			l.close()
			d.stop()
		}
		start := time.Now()
		reqs, err := buildRequests(e.sz, hot, seed)
		if err != nil {
			return nil, err
		}
		if d, err = bootServe(e); err != nil {
			return nil, err
		}
		l = newLoader(d.url, reqs, e.W)
		// A warm-up of so many requests and not of so many seconds: set-up
		// time is normalised by the host factor, which fits only work that
		// takes longer on a slower host.
		warm := l.run(time.Minute, e.sz.warmup)
		if len(warm.lat) == 0 {
			l.close()
			d.stop()
			return nil, fmt.Errorf("serve warm-up: no verified response (%v)", warm.failures)
		}
		r.setup = append(r.setup, time.Since(start).Seconds()/r.host.factor())
	}
	defer l.close()
	selfStart := selfCPU()
	r.host.spent = 0
	var st loadStats
	// A slice without a verified response ends the window: the daemon is
	// not serving, and the failures say why.
	for start := time.Now(); time.Since(start) < window && e.ctx.Err() == nil; {
		part := l.run(sliceLen, 0)
		factor := r.host.factor()
		st.add(part)
		st.wall += part.wall
		if len(part.lat) == 0 {
			break
		}
		r.slices = append(r.slices, slice{
			rate: float64(len(part.lat)) / part.wall.Seconds() * factor,
			op:   median(part.lat) / factor,
		})
	}
	var m metricsDoc
	self := selfCPU() - selfStart - time.Duration(r.host.spent*float64(time.Second))
	merr := getJSON(d.url+"/metrics", &m)
	p := d.stop()
	if merr != nil {
		return nil, fmt.Errorf("serve /metrics: %w", merr)
	}
	if p.err != nil {
		return nil, fmt.Errorf("serve drain: %w", p.err)
	}
	r.account(p)
	r.attempted = st.attempted
	r.failed = st.failed
	r.failures = st.failures
	r.ops = st.lat
	r.work = float64(len(st.lat))
	r.wall = st.wall.Seconds()
	sched := m.Endpoints["schedule"]
	r.serve = &serveStats{
		hitShare:       m.Cache.Hits / (m.Cache.Hits + m.Cache.Misses),
		freshScratches: m.Pool.FreshScratches,
		rejected:       m.Admission.Rejected,
		serverP50MS:    sched.P50MS,
		serverP99MS:    sched.P99MS,
		clientCPUShare: self.Seconds() / (self.Seconds() + p.cpu.Seconds()),
	}
	if m.Cache.Hits > 0 {
		r.serve.tableReuse = m.Cache.TableReuses / m.Cache.Hits
	}
	return r, e.ctx.Err()
}
