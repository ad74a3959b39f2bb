package wfc

// Satellite: a Go-native fuzz target over the wfformat ingestion path —
// the daemon feeds attacker-controlled bytes straight into Parse, so
// the whole chain (Parse → ToTaskGraph → ToNetwork → Instance.Validate
// → Marshal round trip) must reject garbage with errors, never panics.
// Seeds come from the committed WfCommons fixtures in testdata/ plus
// hand-written adversarial documents; `make fuzz-short` runs the
// mutation engine for a bounded slice of CI time, and the corpus under
// testdata/fuzz/ (when the engine finds anything) is committed like any
// other regression.
//
// The fuzzer is also differential: parseReflective is Parse as it stood
// on encoding/json, and every input must get the same verdict and a
// reflect.DeepEqual document from both; toTaskGraphReference is
// ToTaskGraph with AddDep's per-edge checks, and every parsed document
// must get the same verdict and a reflect.DeepEqual graph from both. The one licensed divergence —
// a key repeated inside one object, which the stdlib merges and the
// scanner refuses — is recognised by asking the new decoder first.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"saga/internal/graph"
	"saga/internal/jsonscan"
)

// parseReflective is the oracle: the reflective decoder Parse replaced.
func parseReflective(data []byte) (*Instance, error) {
	data, err := gunzip(data)
	if err != nil {
		return nil, err
	}
	var inst Instance
	if err := json.Unmarshal(data, &inst); err != nil {
		return nil, fmt.Errorf("wfc: %w", err)
	}
	if len(inst.Workflow.Tasks) == 0 {
		return nil, fmt.Errorf("wfc: workflow %q has no tasks", inst.Name)
	}
	return &inst, nil
}

// toTaskGraphReference is ToTaskGraph as it stood before the import was
// made to validate the graph once: AddDep's checks on every edge, then
// Validate. It is the oracle the import graph is held to.
func toTaskGraphReference(in *Instance) (*graph.TaskGraph, error) {
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

// usedDoc fills every part of a Decoder's reused storage: it is read
// before the document under test, which must decode as on a fresh one.
const usedDoc = `{"name": "used", "schemaVersion": "1.4", "workflow": {"tasks": [
	{"name": "u1", "id": "i1", "runtimeInSeconds": 3, "parents": [], "files": [{"name": "f1", "link": "output", "sizeInBytes": 7}, {"name": "f2", "link": "other"}]},
	{"name": "u2", "id": "i2", "runtimeInSeconds": 4, "parents": ["i1", "i9"], "files": [{"name": "f1", "link": "input", "sizeInBytes": 1}]}],
	"machines": [{"nodeName": "m1", "speed": 2}, {"nodeName": "m2", "speed": 3}]}}`

// parseChecked is Parse held to the oracle, and a reused Decoder to
// Parse.
func parseChecked(t *testing.T, data []byte) (*Instance, error) {
	t.Helper()
	doc, err := Parse(data)
	if plain, gzErr := gunzip(data); gzErr == nil {
		var d Decoder
		s := jsonscan.New([]byte(usedDoc))
		d.Scan(&s)
		s = jsonscan.New(plain)
		d.Scan(&s)
		reused, reusedErr := d.Document()
		if endErr := s.End(); endErr != nil {
			reusedErr = endErr
		}
		if (reusedErr == nil) != (err == nil) || err == nil && !reflect.DeepEqual(reused, doc) {
			t.Fatalf("%.200q:\nParse decoded %+v (%v)\na reused Decoder %+v (%v)", data, doc, err, reused, reusedErr)
		}
	}
	if errors.Is(err, jsonscan.ErrDuplicateKey) {
		return nil, err
	}
	want, wantErr := parseReflective(data)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%.200q:\nscanner error: %v\noracle error:  %v", data, err, wantErr)
	}
	if err == nil && !reflect.DeepEqual(doc, want) {
		t.Fatalf("%.200q:\nscanner decoded %+v\noracle decoded  %+v", data, doc, want)
	}
	return doc, err
}

func FuzzParse(f *testing.F) {
	// Every committed fixture is a seed.
	fixtures, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	if len(fixtures) == 0 {
		f.Fatal("no wfformat fixtures in testdata/")
	}
	for _, path := range fixtures {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// Adversarial seeds: shapes that target each validation branch.
	for _, seed := range []string{
		``,
		`{}`,
		`null`,
		`{"workflow": {"tasks": []}}`,
		`{"workflow": {"tasks": [{"runtimeInSeconds": 1}]}}`,                                          // no id, no name
		`{"workflow": {"tasks": [{"name": "a"}, {"name": "a"}]}}`,                                     // duplicate id
		`{"workflow": {"tasks": [{"name": "a", "runtimeInSeconds": -1}]}}`,                            // negative runtime
		`{"workflow": {"tasks": [{"name": "a", "parents": ["ghost"]}]}}`,                              // unknown parent
		`{"workflow": {"tasks": [{"name": "a", "parents": ["a"]}]}}`,                                  // self-dependency
		`{"workflow": {"tasks": [{"name": "a", "parents": ["b"]}, {"name": "b", "parents": ["a"]}]}}`, // cycle
		`{"workflow": {"tasks": [{"name": "a", "parents": ["b", "b"]}, {"name": "b"}]}}`,              // duplicate parent
		// A parent cycle; a cycle with a repeated parent; a task that is its
		// own parent and consumes what it produces.
		`{"workflow": {"tasks": [{"name": "a", "parents": ["c"]}, {"name": "b", "parents": ["a"]}, {"name": "c", "parents": ["b"]}]}}`,
		`{"workflow": {"tasks": [{"name": "a", "parents": ["b"]}, {"name": "b", "parents": ["a", "a"]}]}}`,
		`{"workflow": {"tasks": [{"name": "a", "parents": ["a"], "files": [{"name": "f", "link": "output", "sizeInBytes": 2}, {"name": "f", "link": "input"}]}]}}`,
		// Two outputs share a file name: the last producer gives the size.
		`{"workflow": {"tasks": [{"name": "a", "files": [{"name": "f", "link": "output", "sizeInBytes": 1}]}, {"name": "b", "files": [{"name": "f", "link": "output", "sizeInBytes": 2}]},
			{"name": "c", "parents": ["a", "b"], "files": [{"name": "f", "link": "input"}, {"name": "f", "link": "input", "sizeInBytes": 0.1}]}]}}`,
		// An input without a size takes the producer's; sizes add in file order.
		`{"workflow": {"tasks": [{"name": "a", "files": [{"name": "f", "link": "output", "sizeInBytes": 0.1}, {"name": "g", "link": "output", "sizeInBytes": 0.2}]},
			{"name": "b", "parents": ["a"], "files": [{"name": "f", "link": "input"}, {"name": "g", "link": "input", "sizeInBytes": 0.3}, {"name": "f", "link": "input", "sizeInBytes": 1e-17}]}]}}`,
		// A task both produces and consumes f, and a non-parent produces g.
		`{"workflow": {"tasks": [{"name": "a", "files": [{"name": "g", "link": "output", "sizeInBytes": 5}]}, {"name": "p", "files": [{"name": "f", "link": "output", "sizeInBytes": 3}]},
			{"name": "b", "parents": ["p"], "files": [{"name": "f", "link": "output", "sizeInBytes": 4}, {"name": "f", "link": "input"}, {"name": "g", "link": "input"}]},
			{"name": "c", "parents": ["a", "b"], "files": [{"name": "f", "link": "input"}, {"name": "g", "link": "input"}]}]}}`,
		`{"workflow": {"tasks": [{"name": "a", "runtimeInSeconds": 1e308}], "machines": [{"speed": -3}]}}`,
		`{"workflow": {"tasks": [{"name": "a", "files": [{"name": "f", "link": "input", "sizeInBytes": -5}]}]}}`,
		"\x1f\x8b",             // bare gzip magic — sniffed, then rejected
		"\x1f\x8b\x08\x00junk", // gzip header with a torn body
		// Where a hand-written decoder could part from encoding/json.
		`{"NAME": "n", "SchemaVersion": "1", "WORKFLOW": {"Tasks": [{"NAME": "a", "Id": "x", "runtimeinseconds": 1, "PARENTS": [], "Files": []}], "MACHINES": [{"nodename": "m", "SPEED": 2}]}}`,
		`{"workflow": {"taſks": [{"name": "a", "fileſ": [{"ſizeInBytes": 1}]}]}}`, // U+017F folds to s
		`{"name": null, "schemaVersion": null, "workflow": null}`,
		`{"workflow": {"tasks": null, "machines": null}}`,
		`{"workflow": {"tasks": [null, {"name": null, "id": null, "runtimeInSeconds": null, "parents": null, "files": null}], "machines": [null]}}`,
		`{"workflow": {"tasks": [{"name": "a", "parents": [null], "files": [null, {"name": null, "link": null, "sizeInBytes": null}]}]}}`,
		`{"workflow": {"tasks": [{"name": "a", "parents": [], "files": []}], "machines": []}}`, // empty, not nil
		`{"n\u0061me": "\u00e9\ud83d\ude00", "workflow": {"tasks": [{"name": "lone \ud800 and \udc00\ud800 x", "id": "\"\\\/\b\f\n\r\t"}]}}`,
		"{\"workflow\": {\"tasks\": [{\"name\": \"\xff\xc3(\"}]}}", // invalid UTF-8 becomes U+FFFD
		"{\"workflow\": {\"tasks\": [{\"name\": \"a\tb\"}]}}",      // raw control character
		`{"workflow": {"tasks": [{"name": "a", "runtimeInSeconds": 1.0}, {"name": "b", "runtimeInSeconds": 1e2}, {"name": "c", "runtimeInSeconds": -0}]}}`,
		`{"workflow": {"tasks": [{"name": "a", "runtimeInSeconds": 1e999}]}}`,
		`{"workflow": {"tasks": [{"name": "a", "runtimeInSeconds": 01}]}}`,
		`{"workflow": {"tasks": [{"name": "a", "runtimeInSeconds": "1"}]}}`,
		`{"workflow": {"tasks": [{"name": 1}]}}`,
		`{"workflow": {"tasks": [{"name": "a", "parents": "b"}]}}`,
		`{"workflow": {"tasks": {"name": "a"}}}`,
		`{"workflow": [{"tasks": []}]}`,
		`{"workflow": {"tasks": [{"name": "a"}]}} trailing`,
		`{"workflow": {"tasks": [{"name": "a"}]}, "extra": ` + strings.Repeat("[", jsonscan.MaxDepth-1) + strings.Repeat("]", jsonscan.MaxDepth-1) + `}`,
		`{"workflow": {"tasks": [{"name": "a"}]}, "extra": ` + strings.Repeat("[", jsonscan.MaxDepth) + strings.Repeat("]", jsonscan.MaxDepth) + `}`,
		`{"workflow": {"tasks": [{"name": "a"}], "tasks": [{"name": "b"}]}}`, // repeated key: refused
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := parseChecked(t, data)
		if err != nil {
			return // rejected cleanly
		}
		g, err := doc.ToTaskGraph()
		want, wantErr := toTaskGraphReference(doc)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%.200q:\nToTaskGraph error: %v\noracle error:      %v", data, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(g, want) {
			t.Fatalf("%.200q:\nToTaskGraph built %+v\noracle built      %+v", data, g, want)
		}
		net := doc.ToNetwork(1)
		if err != nil {
			return
		}
		// A graph that converted must stand up as a full instance…
		if net == nil {
			net = graph.NewNetwork(2)
			net.SetLink(0, 1, 1)
		}
		inst := graph.NewInstance(g, net)
		if err := inst.Validate(); err != nil {
			return // degenerate weights are rejected, not scheduled
		}
		// …and survive the export round trip with its shape intact.
		back := FromTaskGraph(doc.Name, g)
		raw, err := back.Marshal()
		if err != nil {
			t.Fatalf("Marshal of converted graph failed: %v", err)
		}
		doc2, err := parseChecked(t, raw)
		if err != nil {
			t.Fatalf("round-tripped document does not re-parse: %v\n%s", err, raw)
		}
		g2, err := doc2.ToTaskGraph()
		if err != nil {
			t.Fatalf("round-tripped document does not re-convert: %v\n%s", err, raw)
		}
		if g2.NumTasks() != g.NumTasks() || g2.NumDeps() != g.NumDeps() {
			t.Fatalf("round trip changed the graph: %d tasks / %d deps became %d / %d",
				g.NumTasks(), g.NumDeps(), g2.NumTasks(), g2.NumDeps())
		}
	})
}
