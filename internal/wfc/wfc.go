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
	var inst Instance
	s := jsonscan.New(data)
	scanInstance(&s, &inst)
	if err := s.End(); err != nil {
		return nil, fmt.Errorf("wfc: %w", err)
	}
	if len(inst.Workflow.Tasks) == 0 {
		return nil, fmt.Errorf("wfc: workflow %q has no tasks", inst.Name)
	}
	return &inst, nil
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

func scanInstance(s *jsonscan.Scanner, in *Instance) {
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
			scanWorkflow(s, &in.Workflow)
		case s.Null(): // consumed; the field keeps its zero value
		case field == 0:
			in.Name = string(s.String())
		case field == 1:
			in.SchemaVersion = string(s.String())
		}
	}
}

func scanWorkflow(s *jsonscan.Scanner, wf *Workflow) {
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
				wf.Tasks = []Task{}
				for s.More() {
					wf.Tasks = append(wf.Tasks, scanTask(s))
				}
			}
		case field == 1:
			if s.Array() {
				wf.Machines = []Machine{}
				for s.More() {
					wf.Machines = append(wf.Machines, scanMachine(s))
				}
			}
		}
	}
}

func scanTask(s *jsonscan.Scanner) (t Task) {
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
				t.Parents = []string{}
				for s.More() {
					var parent string
					if !s.Null() {
						parent = string(s.String())
					}
					t.Parents = append(t.Parents, parent)
				}
			}
		case field == 4:
			if s.Array() {
				t.Files = []File{}
				for s.More() {
					t.Files = append(t.Files, scanFile(s))
				}
			}
		case s.Null():
		case field == 0:
			t.Name = string(s.String())
		case field == 1:
			t.ID = string(s.String())
		case field == 2:
			t.RuntimeInSeconds = s.Float()
		}
	}
}

func scanFile(s *jsonscan.Scanner) (f File) {
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
			f.Name = string(s.String())
		case field == 1:
			f.Link = string(s.String())
		case field == 2:
			f.SizeInBytes = s.Float()
		}
	}
}

func scanMachine(s *jsonscan.Scanner) (m Machine) {
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
			m.NodeName = string(s.String())
		case field == 1:
			m.Speed = s.Float()
		}
	}
}

// ToTaskGraph converts the workflow into the scheduling model's task
// graph. Task compute cost is the runtime in seconds (cost on a speed-1
// node). The data size of dependency (u, v) is the total size of files
// that u outputs and v inputs; dependencies whose tasks share no files
// get data size 0 (pure control dependencies).
func (in *Instance) ToTaskGraph() (*graph.TaskGraph, error) {
	g := graph.NewTaskGraph()
	index := make(map[string]int, len(in.Workflow.Tasks))
	for _, t := range in.Workflow.Tasks {
		id := t.ID
		if id == "" {
			id = t.Name
		}
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
		index[id] = g.AddTask(name, t.RuntimeInSeconds)
	}

	// File production index: file name → producing task.
	producer := map[string]int{}
	outSize := map[string]float64{}
	for _, t := range in.Workflow.Tasks {
		id := t.ID
		if id == "" {
			id = t.Name
		}
		for _, f := range t.Files {
			if f.Link == "output" {
				producer[f.Name] = index[id]
				outSize[f.Name] = f.SizeInBytes
			}
		}
	}

	for _, t := range in.Workflow.Tasks {
		id := t.ID
		if id == "" {
			id = t.Name
		}
		child := index[id]
		// Data volume per parent: files this task inputs that the parent
		// outputs.
		volume := map[int]float64{}
		for _, f := range t.Files {
			if f.Link != "input" {
				continue
			}
			if p, ok := producer[f.Name]; ok && p != child {
				size := f.SizeInBytes
				if size == 0 {
					size = outSize[f.Name]
				}
				volume[p] += size
			}
		}
		for _, pid := range t.Parents {
			p, ok := index[pid]
			if !ok {
				return nil, fmt.Errorf("wfc: task %q references unknown parent %q", id, pid)
			}
			if err := g.AddDep(p, child, volume[p]); err != nil {
				return nil, err
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
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
