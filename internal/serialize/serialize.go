// Package serialize saves and loads problem instances and schedules as
// JSON — the role SAGA's dataset save/load tools play (Section IV-B), so
// adversarial instances discovered by PISA can be published and re-run.
//
// Infinite link strengths (shared-filesystem networks, cloud-cloud
// links) are encoded as the string "inf" since JSON has no infinity
// literal.
//
// The package also owns sweep persistence: Checkpoint is the
// fingerprinted per-cell store behind runner.Options.Checkpoint, and
// MergeCheckpoints combines the per-shard stores of a distributed sweep
// into one. The invariants: a store is bound to one sweep's exact
// parameters by its fingerprint and refuses any other; there is one
// on-disk format, a gzip stream written only by StoreWriter and read
// only by Iter (stream.go), whatever the path is called, and anything
// else — the one-object JSON stores of earlier releases included — is
// refused as corrupt, naming the file; a cell is on
// disk when Store returns, a torn final member is refused by name rather
// than read short, and whole-store writes go through a temp file and a
// rename; a sealed store is canonical, so finished stores of one sweep
// compare equal as file bytes.
package serialize

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"unsafe"

	"saga/internal/graph"
	"saga/internal/jsonscan"
	"saga/internal/schedule"
)

// jsonWeight wraps a float64 that may be +Inf.
type jsonWeight float64

// MarshalJSON implements json.Marshaler.
func (w jsonWeight) MarshalJSON() ([]byte, error) {
	if math.IsInf(float64(w), 1) {
		return []byte(`"inf"`), nil
	}
	return json.Marshal(float64(w))
}

type jsonTask struct {
	Name string  `json:"name"`
	Cost float64 `json:"cost"`
}

type jsonDep struct {
	From int     `json:"from"`
	To   int     `json:"to"`
	Cost float64 `json:"cost"`
}

type jsonLink struct {
	U        int        `json:"u"`
	V        int        `json:"v"`
	Strength jsonWeight `json:"strength"`
}

type jsonInstance struct {
	Tasks  []jsonTask   `json:"tasks"`
	Deps   []jsonDep    `json:"deps"`
	Speeds []jsonWeight `json:"speeds"`
	Links  []jsonLink   `json:"links"`
}

// MarshalInstance encodes an instance as JSON.
func MarshalInstance(inst *graph.Instance) ([]byte, error) {
	ji := jsonInstance{}
	for _, t := range inst.Graph.Tasks {
		ji.Tasks = append(ji.Tasks, jsonTask{Name: t.Name, Cost: t.Cost})
	}
	for u, succ := range inst.Graph.Succ {
		for _, d := range succ {
			ji.Deps = append(ji.Deps, jsonDep{From: u, To: d.To, Cost: d.Cost})
		}
	}
	for _, s := range inst.Net.Speeds {
		ji.Speeds = append(ji.Speeds, jsonWeight(s))
	}
	for u := 0; u < inst.Net.NumNodes(); u++ {
		for v := u + 1; v < inst.Net.NumNodes(); v++ {
			ji.Links = append(ji.Links, jsonLink{U: u, V: v, Strength: jsonWeight(inst.Net.Links[u][v])})
		}
	}
	return json.MarshalIndent(ji, "", "  ")
}

// The field names of the instance document, in the order the decoder's
// switches number them.
var (
	instanceFields = []string{"tasks", "deps", "speeds", "links"}
	taskFields     = []string{"name", "cost"}
	depFields      = []string{"from", "to", "cost"}
	linkFields     = []string{"u", "v", "strength"}
)

// UnmarshalInstance decodes an instance from JSON and validates it. It
// reads the document in one pass (internal/jsonscan) with the field
// semantics of encoding/json — keys matched exactly, then case-folded;
// null leaves a field at its zero value; unknown keys skipped — except
// that a key repeated inside one object is refused. Dependencies are
// range-checked here and every other graph invariant is left to the one
// Validate.
func UnmarshalInstance(data []byte) (*graph.Instance, error) {
	var d InstanceDecoder
	s := jsonscan.New(data)
	d.Scan(&s)
	if err := s.End(); err != nil {
		return nil, fmt.Errorf("serialize: %w", err)
	}
	return d.Instance()
}

// InstanceDecoder is UnmarshalInstance in two steps, for a caller that
// reads the document as part of a larger one and keeps the decoder from
// one document to the next: Scan reads it into storage the decoder
// reuses, and Instance builds the instance from that, sharing no memory
// with the decoder. The zero value is ready to use.
type InstanceDecoder struct {
	tasks  []graph.Task
	names  jsonscan.Strings
	deps   []jsonDep
	speeds []float64
	links  []jsonLink
	err    error
}

// Scan reads an instance document from s, replacing what d held. A
// refusal is recorded in s, as every scanner error is, and kept by d
// for Instance to report.
func (d *InstanceDecoder) Scan(s *jsonscan.Scanner) {
	d.tasks, d.deps, d.speeds, d.links = d.tasks[:0], d.deps[:0], d.speeds[:0], d.links[:0]
	d.names.Reset()
	d.scan(s)
	d.err = s.Err()
}

// Footprint reports the bytes of storage d keeps for the next Scan.
func (d *InstanceDecoder) Footprint() int {
	return cap(d.tasks)*int(unsafe.Sizeof(graph.Task{})) + d.names.Cap() + cap(d.deps)*int(unsafe.Sizeof(jsonDep{})) +
		cap(d.speeds)*8 + cap(d.links)*int(unsafe.Sizeof(jsonLink{}))
}

// Instance builds and validates the instance the last Scan read.
func (d *InstanceDecoder) Instance() (*graph.Instance, error) {
	if d.err != nil {
		return nil, fmt.Errorf("serialize: %w", d.err)
	}
	g := graph.NewTaskGraph()
	if len(d.tasks) > 0 {
		g.Tasks = slices.Clone(d.tasks)
		graph.CopyNames(g.Tasks)
	}
	n := len(g.Tasks)
	degree := make([]int, 2*n)
	for _, dep := range d.deps {
		if dep.From < 0 || dep.From >= n || dep.To < 0 || dep.To >= n {
			return nil, fmt.Errorf("serialize: graph: dependency (%d, %d) out of range", dep.From, dep.To)
		}
		degree[dep.From]++
		degree[n+dep.To]++
	}
	g.ReserveDeps(degree[:n], degree[n:])
	for _, dep := range d.deps {
		g.AddDepUnchecked(dep.From, dep.To, dep.Cost)
	}
	net := graph.NewNetwork(len(d.speeds))
	copy(net.Speeds, d.speeds)
	for _, l := range d.links {
		if l.U < 0 || l.U >= net.NumNodes() || l.V < 0 || l.V >= net.NumNodes() {
			return nil, fmt.Errorf("serialize: link (%d, %d) out of range", l.U, l.V)
		}
		net.SetLink(l.U, l.V, float64(l.Strength))
	}
	inst := graph.NewInstance(g, net)
	if err := inst.Validate(); err != nil {
		return nil, fmt.Errorf("serialize: %w", err)
	}
	return inst, nil
}

// scan reads the document root: tasks, dependencies, speeds and links
// as they stand, because dependencies and links are checked against the
// task and node counts and "tasks" or "speeds" may stand behind them in
// the document.
func (d *InstanceDecoder) scan(s *jsonscan.Scanner) {
	if !s.Object() {
		return
	}
	var seen uint32
	for {
		field, ok := s.Field(instanceFields, &seen)
		switch {
		case !ok:
			return
		case field < 0:
			s.Skip()
			continue
		case !s.Array(): // null, or a mismatch the scanner has recorded
			continue
		}
		for s.More() {
			switch field {
			case 0:
				d.tasks = append(d.tasks, scanTask(s, &d.names))
			case 1:
				d.deps = append(d.deps, scanDep(s))
			case 2:
				d.speeds = append(d.speeds, scanWeight(s))
			case 3:
				d.links = append(d.links, scanLink(s))
			}
		}
	}
}

func scanTask(s *jsonscan.Scanner, names *jsonscan.Strings) (t graph.Task) {
	if !s.Object() {
		return t
	}
	var seen uint32
	for {
		field, ok := s.Field(taskFields, &seen)
		switch {
		case !ok:
			return t
		case field < 0:
			s.Skip()
		case s.Null(): // consumed; the field keeps its zero value
		case field == 0:
			t.Name = names.Keep(s.String())
		case field == 1:
			t.Cost = s.Float()
		}
	}
}

func scanDep(s *jsonscan.Scanner) (d jsonDep) {
	if !s.Object() {
		return d
	}
	var seen uint32
	for {
		field, ok := s.Field(depFields, &seen)
		switch {
		case !ok:
			return d
		case field < 0:
			s.Skip()
		case s.Null():
		case field == 0:
			d.From = s.Int()
		case field == 1:
			d.To = s.Int()
		case field == 2:
			d.Cost = s.Float()
		}
	}
}

func scanLink(s *jsonscan.Scanner) (l jsonLink) {
	if !s.Object() {
		return l
	}
	var seen uint32
	for {
		field, ok := s.Field(linkFields, &seen)
		switch {
		case !ok:
			return l
		case field < 0:
			s.Skip()
		case s.Null():
		case field == 0:
			l.U = s.Int()
		case field == 1:
			l.V = s.Int()
		case field == 2:
			l.Strength = jsonWeight(scanWeight(s))
		}
	}
}

// scanWeight reads a jsonWeight: a number, null (zero), or the string
// "inf" spelled exactly so.
func scanWeight(s *jsonscan.Scanner) float64 {
	switch {
	case s.Null():
		return 0
	case s.Peek() == '"':
		if raw := s.Skip(); string(raw) != `"inf"` {
			s.Errorf("weight %s is neither a number nor \"inf\"", raw)
		}
		return math.Inf(1)
	}
	return s.Float()
}

// SaveInstance writes an instance to path as JSON.
func SaveInstance(path string, inst *graph.Instance) error {
	data, err := MarshalInstance(inst)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadInstance reads an instance from a JSON file.
func LoadInstance(path string) (*graph.Instance, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return UnmarshalInstance(data)
}

type jsonAssignment struct {
	Task  int     `json:"task"`
	Node  int     `json:"node"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

type jsonSchedule struct {
	NumNodes    int              `json:"num_nodes"`
	Assignments []jsonAssignment `json:"assignments"`
}

// AppendSchedule appends the compact JSON form of a schedule to dst:
// the bytes json.Marshal would produce, written without reflection. A
// NaN or infinite time has no JSON form and is an error.
func AppendSchedule(dst []byte, s *schedule.Schedule) ([]byte, error) {
	dst = append(dst, `{"num_nodes":`...)
	dst = strconv.AppendInt(dst, int64(s.NumNodes), 10)
	dst = append(dst, `,"assignments":`...)
	if len(s.ByTask) == 0 {
		return append(dst, "null}"...), nil
	}
	var err error
	for i, a := range s.ByTask {
		if i == 0 {
			dst = append(dst, `[{"task":`...)
		} else {
			dst = append(dst, `,{"task":`...)
		}
		dst = strconv.AppendInt(dst, int64(a.Task), 10)
		dst = append(dst, `,"node":`...)
		dst = strconv.AppendInt(dst, int64(a.Node), 10)
		dst = append(dst, `,"start":`...)
		if dst, err = jsonscan.AppendFloat(dst, a.Start); err != nil {
			return dst, fmt.Errorf("serialize: assignment %d start: %w", i, err)
		}
		dst = append(dst, `,"end":`...)
		if dst, err = jsonscan.AppendFloat(dst, a.End); err != nil {
			return dst, fmt.Errorf("serialize: assignment %d end: %w", i, err)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}"...), nil
}

// MarshalSchedule encodes a schedule as indented JSON.
func MarshalSchedule(s *schedule.Schedule) ([]byte, error) {
	// An assignment is about 80 bytes compact and twice that indented.
	compact, err := AppendSchedule(make([]byte, 0, 64+96*len(s.ByTask)), s)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.Grow(2 * len(compact))
	if err := json.Indent(&buf, compact, "", "  "); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalSchedule decodes a schedule from JSON.
func UnmarshalSchedule(data []byte) (*schedule.Schedule, error) {
	var js jsonSchedule
	if err := json.Unmarshal(data, &js); err != nil {
		return nil, fmt.Errorf("serialize: %w", err)
	}
	s := &schedule.Schedule{NumNodes: js.NumNodes}
	for _, a := range js.Assignments {
		s.ByTask = append(s.ByTask, schedule.Assignment(a))
	}
	return s, nil
}
