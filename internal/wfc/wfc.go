// Package wfc reads and writes a pragmatic subset of the WfCommons
// workflow instance format (wfformat), the JSON schema behind the
// Pegasus/Makeflow execution traces the paper's scientific-workflow
// datasets are generated from. Supporting the real interchange format
// means actual wfcommons instances — and instances exported from this
// repository — can flow between SAGA, PISA and other tools.
//
// The subset covers what the scheduling model consumes: task names,
// runtimes, parent lists, input/output files with sizes (from which
// dependency data sizes are derived, matching WfCommons semantics:
// the data exchanged between two dependent tasks is the total size of
// files the parent writes and the child reads), and machine speeds.
package wfc

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"unsafe"

	"saga/internal/graph"
	"saga/internal/jsonscan"
)

// File is one input or output file of a task.
type File struct {
	Name string `json:"name"`
	// Link is "input" or "output".
	Link string `json:"link"`
	// SizeInBytes is the file size.
	SizeInBytes float64 `json:"sizeInBytes"`
}

// Task is one workflow task.
type Task struct {
	Name string `json:"name"`
	ID   string `json:"id"`
	// RuntimeInSeconds is the measured or synthetic task runtime.
	RuntimeInSeconds float64 `json:"runtimeInSeconds"`
	// Parents lists prerequisite task IDs.
	Parents []string `json:"parents"`
	Files   []File   `json:"files,omitempty"`
}

// Machine is one compute resource.
type Machine struct {
	NodeName string `json:"nodeName"`
	// Speed is a relative CPU speed factor (1.0 = reference machine).
	Speed float64 `json:"speed"`
}

// Workflow is the wfformat workflow body.
type Workflow struct {
	Tasks    []Task    `json:"tasks"`
	Machines []Machine `json:"machines,omitempty"`
}

// Instance is the wfformat document root.
type Instance struct {
	Name          string   `json:"name"`
	SchemaVersion string   `json:"schemaVersion"`
	Workflow      Workflow `json:"workflow"`
}

// Parse decodes a wfformat document. Gzip-compressed documents (the
// form wfcommons distributes its trace archives in, sniffed by the
// 0x1f 0x8b magic bytes) are decompressed transparently, so every
// caller of this single reader path accepts .json and .json.gz alike.
func Parse(data []byte) (*Instance, error) {
	data, err := gunzip(data)
	if err != nil {
		return nil, err
	}
	d := new(Decoder)
	s := jsonscan.New(data)
	d.Scan(&s)
	if err := s.End(); err != nil {
		return nil, fmt.Errorf("wfc: %w", err)
	}
	return d.Document()
}

// gunzip returns data decompressed when it starts with the gzip magic
// bytes, and as it is otherwise.
func gunzip(data []byte) ([]byte, error) {
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		return data, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("wfc: bad gzip document: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if cerr := zr.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("wfc: bad gzip document: %w", err)
	}
	return raw, nil
}

// The field names of each wfformat object, in the order the scan
// functions' switches number them. The scan functions give a document
// the field semantics of encoding/json — keys matched exactly, then
// case-folded; null leaves a field as it is; [] is an empty, non-nil
// slice; unknown keys skipped — except that a key repeated inside one
// object is refused (see internal/jsonscan).
var (
	instanceFields = []string{"name", "schemaVersion", "workflow"}
	workflowFields = []string{"tasks", "machines"}
	taskFields     = []string{"name", "id", "runtimeInSeconds", "parents", "files"}
	fileFields     = []string{"name", "link", "sizeInBytes"}
	machineFields  = []string{"nodeName", "speed"}
)

// Decoder is Parse in two steps, for a caller that reads the document
// as part of a larger one and keeps the decoder from one document to the
// next: Scan reads it, and Document returns it. The document lives in
// storage the next Scan reuses: the task and machine slices, one string
// store, and the pools every task's parents and files are cut from, so
// that a task's lists cost no allocation of their own. ToTaskGraph and
// ToNetwork copy what they keep, so what they build outlives the next
// Scan. The zero value is ready to use.
type Decoder struct {
	doc      Instance
	tasks    []Task
	machines []Machine
	strs     jsonscan.Strings
	parents  pool[string]
	files    pool[File]
	err      error
}

// Scan reads a wfformat document from s, replacing what d held. A
// refusal is recorded in s, as every scanner error is, and kept by d
// for Document to report.
func (d *Decoder) Scan(s *jsonscan.Scanner) {
	d.doc = Instance{}
	d.tasks, d.machines = d.tasks[:0], d.machines[:0]
	d.strs.Reset()
	d.parents.reset()
	d.files.reset()
	d.instance(s, &d.doc)
	d.err = s.Err()
}

// Document returns the document the last Scan read, refusing one with
// no tasks. It is d's: the next Scan overwrites it.
func (d *Decoder) Document() (*Instance, error) {
	if d.err != nil {
		return nil, fmt.Errorf("wfc: %w", d.err)
	}
	if len(d.doc.Workflow.Tasks) == 0 {
		return nil, fmt.Errorf("wfc: workflow %q has no tasks", d.doc.Name)
	}
	return &d.doc, nil
}

// Footprint reports the bytes of storage d keeps for the next Scan.
func (d *Decoder) Footprint() int {
	return cap(d.tasks)*int(unsafe.Sizeof(Task{})) + cap(d.machines)*int(unsafe.Sizeof(Machine{})) + d.strs.Cap() +
		d.parents.footprint() + d.files.footprint()
}

// pool hands out runs of consecutive elements from shared chunks. A run
// that outgrows its chunk moves to a fresh one, which copies that run
// alone; a filled chunk stays where it is, serving the runs already cut
// from it.
type pool[T any] struct {
	chunk []T
	start int // where the current run begins in chunk
	added int // elements added since the last reset
}

// poolChunk is a pool's chunk length, unless a run needs more.
const poolChunk = 128

// reset lets the pool hand out its memory again, every run cut so far
// included. It keeps one chunk large enough for everything added since
// the last reset.
func (p *pool[T]) reset() {
	if p.added > cap(p.chunk) {
		p.chunk = make([]T, 0, p.added)
	}
	p.chunk, p.start, p.added = p.chunk[:0], 0, 0
}

// footprint reports the bytes of the chunk reset would keep.
func (p *pool[T]) footprint() int {
	var x T
	return max(cap(p.chunk), p.added) * int(unsafe.Sizeof(x))
}

// begin starts a run.
func (p *pool[T]) begin() { p.start = len(p.chunk) }

// add appends x to the current run.
func (p *pool[T]) add(x T) {
	if len(p.chunk) == cap(p.chunk) {
		run := p.chunk[p.start:]
		next := make([]T, len(run), max(poolChunk, 2*len(run)))
		copy(next, run)
		p.chunk, p.start = next, 0
	}
	p.chunk = append(p.chunk, x)
	p.added++
}

// cut returns the current run as a list of its own: capped, so that
// appending to it cannot write into the pool, and empty but not nil
// when it has no element, as encoding/json decodes [].
func (p *pool[T]) cut() []T {
	if p.start == len(p.chunk) {
		return []T{}
	}
	return p.chunk[p.start:len(p.chunk):len(p.chunk)]
}

// str reads a string into the store.
func (d *Decoder) str(s *jsonscan.Scanner) string { return d.strs.Keep(s.String()) }

// link reads a file's link, sharing the two words of the vocabulary.
func (d *Decoder) link(s *jsonscan.Scanner) string {
	switch p := s.String(); string(p) {
	case "input":
		return "input"
	case "output":
		return "output"
	default:
		return d.strs.Keep(p)
	}
}

func (d *Decoder) instance(s *jsonscan.Scanner, in *Instance) {
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
		case field == 2:
			d.workflow(s, &in.Workflow)
		case s.Null(): // consumed; the field keeps its zero value
		case field == 0:
			in.Name = d.str(s)
		case field == 1:
			in.SchemaVersion = d.str(s)
		}
	}
}

func (d *Decoder) workflow(s *jsonscan.Scanner, wf *Workflow) {
	if !s.Object() {
		return
	}
	var seen uint32
	for {
		field, ok := s.Field(workflowFields, &seen)
		switch {
		case !ok:
			return
		case field < 0:
			s.Skip()
		case field == 0:
			if s.Array() {
				// A slice the last document left grown is filled in place.
				tasks := d.tasks[:0]
				if tasks == nil {
					tasks = []Task{}
				}
				for s.More() {
					tasks = append(tasks, d.task(s))
				}
				wf.Tasks, d.tasks = tasks, tasks
			}
		case field == 1:
			if s.Array() {
				machines := d.machines[:0]
				if machines == nil {
					machines = []Machine{}
				}
				for s.More() {
					machines = append(machines, d.machine(s))
				}
				wf.Machines, d.machines = machines, machines
			}
		}
	}
}

func (d *Decoder) task(s *jsonscan.Scanner) (t Task) {
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
		case field == 3:
			if s.Array() {
				d.parents.begin()
				for s.More() {
					var parent string
					if !s.Null() {
						parent = d.str(s)
					}
					d.parents.add(parent)
				}
				t.Parents = d.parents.cut()
			}
		case field == 4:
			if s.Array() {
				d.files.begin()
				for s.More() {
					d.files.add(d.file(s))
				}
				t.Files = d.files.cut()
			}
		case s.Null():
		case field == 0:
			t.Name = d.str(s)
		case field == 1:
			t.ID = d.str(s)
		case field == 2:
			t.RuntimeInSeconds = s.Float()
		}
	}
}

func (d *Decoder) file(s *jsonscan.Scanner) (f File) {
	if !s.Object() {
		return f
	}
	var seen uint32
	for {
		field, ok := s.Field(fileFields, &seen)
		switch {
		case !ok:
			return f
		case field < 0:
			s.Skip()
		case s.Null():
		case field == 0:
			f.Name = d.str(s)
		case field == 1:
			f.Link = d.link(s)
		case field == 2:
			f.SizeInBytes = s.Float()
		}
	}
}

func (d *Decoder) machine(s *jsonscan.Scanner) (m Machine) {
	if !s.Object() {
		return m
	}
	var seen uint32
	for {
		field, ok := s.Field(machineFields, &seen)
		switch {
		case !ok:
			return m
		case field < 0:
			s.Skip()
		case s.Null():
		case field == 0:
			m.NodeName = d.str(s)
		case field == 1:
			m.Speed = s.Float()
		}
	}
}

// ToTaskGraph converts the workflow into the scheduling model's task
// graph. Task compute cost is the runtime in seconds (cost on a speed-1
// node). The data size of dependency (u, v) is the total size of files
// that u outputs and v inputs; dependencies whose tasks share no files
// get data size 0 (pure control dependencies). Parents are resolved
// before any edge is added, so the adjacency is sized from the degrees,
// and the graph is validated once, by TaskGraph.Validate. The graph
// shares no memory with the document: task names are copied.
func (in *Instance) ToTaskGraph() (*graph.TaskGraph, error) {
	tasks := in.Workflow.Tasks
	n := len(tasks)
	g := &graph.TaskGraph{Tasks: slices.Grow([]graph.Task(nil), n)}
	index := make(map[string]int, n)
	nParents, nOutputs := 0, 0
	for _, t := range tasks {
		id := t.key()
		if id == "" {
			return nil, fmt.Errorf("wfc: task with neither id nor name")
		}
		if _, dup := index[id]; dup {
			return nil, fmt.Errorf("wfc: duplicate task id %q", id)
		}
		if t.RuntimeInSeconds < 0 {
			return nil, fmt.Errorf("wfc: task %q has negative runtime", id)
		}
		name := t.Name
		if name == "" {
			name = id
		}
		index[id] = len(g.Tasks)
		g.Tasks = append(g.Tasks, graph.Task{Name: name, Cost: t.RuntimeInSeconds})
		nParents += len(t.Parents)
		for _, f := range t.Files {
			if f.Link == "output" {
				nOutputs++
			}
		}
	}
	graph.CopyNames(g.Tasks)

	// parents holds every task's resolved parents, task after task;
	// degree their out-degrees, then the tasks' in-degrees.
	parents := make([]int, 0, nParents)
	degree := make([]int, 2*n)
	for child, t := range tasks {
		for _, pid := range t.Parents {
			p, ok := index[pid]
			if !ok {
				return nil, fmt.Errorf("wfc: task %q references unknown parent %q", t.key(), pid)
			}
			parents = append(parents, p)
			degree[p]++
		}
		degree[n+child] = len(t.Parents)
	}
	g.ReserveDeps(degree[:n], degree[n:])

	// File production index: file name → the last task that outputs it,
	// and the size it gives.
	type output struct {
		task int
		size float64
	}
	produced := make(map[string]output, nOutputs)
	for i, t := range tasks {
		for _, f := range t.Files {
			if f.Link == "output" {
				produced[f.Name] = output{i, f.SizeInBytes}
			}
		}
	}

	// volume[p] accumulates the data the current task inputs from its
	// parent p, over its files in document order, and is zeroed again
	// after the task; mark[p] == child+1 says p is a parent of child, and
	// reuses the out-degrees, which ReserveDeps no longer needs.
	volume := make([]float64, n)
	mark := degree[:n]
	clear(mark)
	for child, t := range tasks {
		ps := parents[:len(t.Parents)]
		parents = parents[len(t.Parents):]
		for _, p := range ps {
			mark[p] = child + 1
		}
		for _, f := range t.Files {
			if f.Link != "input" {
				continue
			}
			if out, ok := produced[f.Name]; ok && mark[out.task] == child+1 {
				size := f.SizeInBytes
				if size == 0 {
					size = out.size
				}
				volume[out.task] += size
			}
		}
		for _, p := range ps {
			g.AddDepUnchecked(p, child, volume[p])
		}
		for _, p := range ps {
			volume[p] = 0
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// key is the task's identity in parent lists: its id, or its name when
// it has no id.
func (t *Task) key() string {
	if t.ID != "" {
		return t.ID
	}
	return t.Name
}

// ToNetwork builds a complete network from the instance's machines with
// the given uniform link strength (WfCommons traces carry no link data;
// the paper sets homogeneous rates per target CCR). It returns nil if no
// machines are listed.
func (in *Instance) ToNetwork(linkStrength float64) *graph.Network {
	ms := in.Workflow.Machines
	if len(ms) == 0 {
		return nil
	}
	net := graph.NewNetwork(len(ms))
	for v, m := range ms {
		s := m.Speed
		if s <= 0 {
			s = 1
		}
		net.Speeds[v] = s
		for u := 0; u < v; u++ {
			net.SetLink(u, v, linkStrength)
		}
	}
	return net
}

// FromTaskGraph converts a scheduling-model task graph back into a
// wfformat document. Each dependency (u, v) with positive data size
// becomes one file, output by u and input by v, named after the edge.
func FromTaskGraph(name string, g *graph.TaskGraph) *Instance {
	inst := &Instance{
		Name:          name,
		SchemaVersion: "1.4",
	}
	ids := make([]string, g.NumTasks())
	for t := range g.Tasks {
		ids[t] = fmt.Sprintf("task%05d", t)
	}
	for t, task := range g.Tasks {
		wt := Task{
			Name:             task.Name,
			ID:               ids[t],
			RuntimeInSeconds: task.Cost,
		}
		for _, d := range g.Pred[t] {
			wt.Parents = append(wt.Parents, ids[d.To])
			if cost, _ := g.DepCost(d.To, t); cost > 0 {
				wt.Files = append(wt.Files, File{
					Name:        fmt.Sprintf("file_%s_%s", ids[d.To], ids[t]),
					Link:        "input",
					SizeInBytes: cost,
				})
			}
		}
		for _, d := range g.Succ[t] {
			if d.Cost > 0 {
				wt.Files = append(wt.Files, File{
					Name:        fmt.Sprintf("file_%s_%s", ids[t], ids[d.To]),
					Link:        "output",
					SizeInBytes: d.Cost,
				})
			}
		}
		inst.Workflow.Tasks = append(inst.Workflow.Tasks, wt)
	}
	return inst
}

// Marshal encodes the instance as indented JSON.
func (in *Instance) Marshal() ([]byte, error) {
	return json.MarshalIndent(in, "", "  ")
}
