package serve

import (
	"context"
	"encoding/json"
	"net/http"

	"saga/internal/experiments"
	"saga/internal/httpx"
)

// ScheduleRequest asks the daemon to schedule one instance. The
// instance arrives either in the repo's serialize format (Instance) or
// as a WfCommons wfformat document (WfC) with the same import knobs as
// `saga convert`: a uniform link strength, an optional homogeneous CCR
// override, and a fallback network size when the trace lists no
// machines. Exactly one of Instance and WfC must be set.
type ScheduleRequest struct {
	Scheduler string          `json:"scheduler"`
	Instance  json.RawMessage `json:"instance,omitempty"`
	WfC       json.RawMessage `json:"wfc,omitempty"`
	Link      float64         `json:"link,omitempty"`
	CCR       float64         `json:"ccr,omitempty"`
	Nodes     int             `json:"nodes,omitempty"`
}

// ScheduleResponse carries the schedule in the serialize format, so a
// thin client renders exactly what a local `saga schedule` would. The
// body is byte-identical to one built from a direct in-process
// Schedule() call on the same input — the identity suite enforces it.
type ScheduleResponse struct {
	Scheduler string          `json:"scheduler"`
	Makespan  float64         `json:"makespan"`
	Schedule  json.RawMessage `json:"schedule"`
}

// PortfolioRequest asks for a pairwise PISA grid over the named
// schedulers and the best k-subset portfolio drawn from it. Iters,
// Restarts and Seed parameterize the per-pair annealing exactly as
// `saga portfolio` does; results are independent of how many workers
// the daemon runs the grid with (ARCHITECTURE invariant 6). A key the
// body leaves out (or sends as null) gets portfolioDefaults' value; an
// explicit 0 is a value, judged by experiments.NewSweep like any other.
type PortfolioRequest struct {
	Schedulers []string `json:"schedulers"`
	K          int      `json:"k"`
	Iters      int      `json:"iters"`
	Restarts   int      `json:"restarts"`
	Seed       uint64   `json:"seed"`
}

// portfolioDefaults and robustnessDefaults are what the daemon decodes
// a request into, so they fill exactly the keys a body leaves out.
var (
	portfolioDefaults  = PortfolioRequest{Iters: 250, Restarts: 2, Seed: 1}
	robustnessDefaults = RobustnessRequest{Sigma: 0.2, N: 100, Seed: 1}
)

// PortfolioResponse is the grid plus the selected portfolio. Ratios is
// row-major with base schedulers as rows and analyzed schedulers as
// columns; unknown cells (the diagonal) are -1, matching
// experiments.PairwiseResult.
type PortfolioResponse struct {
	Schedulers []string    `json:"schedulers"`
	Ratios     [][]float64 `json:"ratios"`
	Members    []string    `json:"members"`
	WorstRatio float64     `json:"worst_ratio"`
}

// RobustnessRequest asks for a PISA robustness report: n jittered
// replays of the scheduler's committed schedule versus clairvoyant
// re-planning, with relative cost jitter sigma. The instance arrives
// like ScheduleRequest's. Sigma, N and Seed left out (or null) get
// robustnessDefaults' values; an explicit 0 is a value, judged by
// experiments.NewSweep like any other.
type RobustnessRequest struct {
	Scheduler string          `json:"scheduler"`
	Instance  json.RawMessage `json:"instance,omitempty"`
	WfC       json.RawMessage `json:"wfc,omitempty"`
	Link      float64         `json:"link,omitempty"`
	CCR       float64         `json:"ccr,omitempty"`
	Nodes     int             `json:"nodes,omitempty"`
	Sigma     float64         `json:"sigma"`
	N         int             `json:"n"`
	Seed      uint64          `json:"seed"`
}

// RobustnessResponse is the robustness sweep's result, whose JSON tags
// are the wire format.
type RobustnessResponse = experiments.RobustnessResult

// Client is the thin client the CLI subcommands (and the e2e/load
// harnesses) speak to a running daemon with. The zero HTTPClient means
// http.DefaultClient; Token, when set, is presented as a bearer token
// on every call (the daemon's -token).
type Client struct {
	BaseURL    string
	HTTPClient *http.Client
	Token      string
}

func (c *Client) client() *http.Client {
	return httpx.NewBearerClient(c.HTTPClient, c.Token)
}

// Schedule submits a ScheduleRequest.
func (c *Client) Schedule(ctx context.Context, req ScheduleRequest) (*ScheduleResponse, error) {
	var resp ScheduleResponse
	if err := httpx.PostJSON(ctx, c.client(), c.BaseURL+"/v1/schedule", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Portfolio submits a PortfolioRequest.
func (c *Client) Portfolio(ctx context.Context, req PortfolioRequest) (*PortfolioResponse, error) {
	var resp PortfolioResponse
	if err := httpx.PostJSON(ctx, c.client(), c.BaseURL+"/v1/portfolio", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Robustness submits a RobustnessRequest.
func (c *Client) Robustness(ctx context.Context, req RobustnessRequest) (*RobustnessResponse, error) {
	var resp RobustnessResponse
	if err := httpx.PostJSON(ctx, c.client(), c.BaseURL+"/v1/robustness", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Metrics fetches the daemon's /metrics snapshot.
func (c *Client) Metrics(ctx context.Context) (*MetricsSnapshot, error) {
	var snap MetricsSnapshot
	if err := httpx.GetJSON(ctx, c.client(), c.BaseURL+"/metrics", &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}
