package serialize

// The reflective decoder UnmarshalInstance replaced, kept as the oracle
// the hand-written one is differentially fuzzed against, and the golden
// table that holds AppendSchedule to json.MarshalIndent.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"saga/internal/graph"
	"saga/internal/jsonscan"
	"saga/internal/schedule"
)

// UnmarshalJSON is the decoding half of jsonWeight; only the oracle
// decodes through encoding/json.
func (w *jsonWeight) UnmarshalJSON(b []byte) error {
	if string(b) == `"inf"` {
		*w = jsonWeight(math.Inf(1))
		return nil
	}
	var f float64
	if err := json.Unmarshal(b, &f); err != nil {
		return err
	}
	*w = jsonWeight(f)
	return nil
}

// unmarshalInstanceReflective is UnmarshalInstance as it stood on
// encoding/json.
func unmarshalInstanceReflective(data []byte) (*graph.Instance, error) {
	var ji jsonInstance
	if err := json.Unmarshal(data, &ji); err != nil {
		return nil, fmt.Errorf("serialize: %w", err)
	}
	g := graph.NewTaskGraph()
	for _, t := range ji.Tasks {
		g.AddTask(t.Name, t.Cost)
	}
	for _, d := range ji.Deps {
		if err := g.AddDep(d.From, d.To, d.Cost); err != nil {
			return nil, fmt.Errorf("serialize: %w", err)
		}
	}
	net := graph.NewNetwork(len(ji.Speeds))
	for v, s := range ji.Speeds {
		net.Speeds[v] = float64(s)
	}
	for _, l := range ji.Links {
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

// checkInstanceAgainstOracle demands the same verdict and the same
// instance from both decoders. The one licensed divergence — a repeated
// key, which the stdlib merges and the scanner refuses — is recognised
// by asking the new decoder first.
func checkInstanceAgainstOracle(t *testing.T, data []byte) {
	t.Helper()
	got, err := UnmarshalInstance(data)
	if errors.Is(err, jsonscan.ErrDuplicateKey) {
		return
	}
	want, wantErr := unmarshalInstanceReflective(data)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%.200q:\nscanner error: %v\noracle error:  %v", data, err, wantErr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%.200q:\nscanner decoded %+v / %+v\noracle decoded  %+v / %+v", data, got.Graph, got.Net, want.Graph, want.Net)
	}
}

// instanceSeeds are whole documents; instanceValueSeeds are spliced
// into every value position of a small valid one.
var instanceSeeds = []string{
	``, `null`, `{}`, `[]`, `{"tasks":[{"name":"a","cost":1}],"deps":[],"speeds":[1],"links":[]}`,
	`{"links":[{"u":0,"v":1,"strength":"inf"}],"speeds":[1,2.5],"deps":[{"from":0,"to":1,"cost":0.5}],"tasks":[{"name":"a","cost":1},{"name":"b","cost":2}]}`,
	`{"TASKS":[{"NAME":"a","Cost":1}],"Speeds":[1],"tasKs":null}`,
	`{"taſks":[{"name":"a","coſt":1}],"ſpeeds":[1],"linKs":[]}`,
	`{"tasks":[{"name":"é😀\ud800","cost":1}],"speeds":[1]}`,
	"{\"tasks\":[{\"name\":\"\xff\xc3\",\"cost\":1}],\"speeds\":[1]}",
	`{"tasks":[null,{"name":null,"cost":null}],"deps":[null],"speeds":[null,1],"links":[null]}`,
	`{"tasks":[{"name":"a","cost":1}],"speeds":[1],"links":[{"u":0,"v":0,"strength":null}]}`,
	`{"tasks":[{"name":"a","cost":1},{"name":"b","cost":1}],"deps":[{"from":0,"to":1,"cost":1},{"from":1,"to":0,"cost":1}],"speeds":[1]}`,
	`{"tasks":[{"name":"a","cost":1}],"deps":[{"from":0,"to":0,"cost":1}],"speeds":[1]}`,
	`{"tasks":[{"name":"a","cost":1}],"deps":[{"from":0,"to":7,"cost":1}],"speeds":[1]}`,
	`{"tasks":[{"name":"a","cost":1}],"speeds":[1,1],"links":[{"u":0,"v":9,"strength":1}]}`,
	`{"tasks":[{"name":"a","cost":1}],"speeds":[1]} trailing`,
	`{"tasks":[{"name":"a","cost":1}],"speeds":[1],"extra":` + strings.Repeat("[", jsonscan.MaxDepth-1) + strings.Repeat("]", jsonscan.MaxDepth-1) + `}`,
	`{"tasks":[{"name":"a","cost":1}],"speeds":[1],"extra":` + strings.Repeat("[", jsonscan.MaxDepth) + strings.Repeat("]", jsonscan.MaxDepth) + `}`,
	`{"tasks":[{"name":"a","cost":1}],"tasks":[{"name":"b","cost":1}],"speeds":[1]}`,
}

var instanceValueSeeds = []string{
	`null`, `0`, `-0`, `1.0`, `1e2`, `1e999`, `-1e999`, `01`, `9223372036854775808`, `"inf"`, `"Inf"`, `"\u0069nf"`, `"1"`,
	`true`, `[]`, `{}`, `[null]`, `{"a":1,}`, `1 1`,
}

func seedInstanceFuzz(add func([]byte)) {
	for _, doc := range instanceSeeds {
		add([]byte(doc))
	}
	// One position at a time, so that one refusal does not mask another.
	const tmpl = `{"tasks":[{"name":$0,"cost":$1},{"name":"b","cost":1}],"deps":[{"from":$2,"to":1,"cost":$3}],"speeds":[$4,1],"links":[{"u":$5,"v":1,"strength":$6}]}`
	valid := []string{`"a"`, "1", "0", "1", "1", "0", "1"}
	for _, v := range instanceValueSeeds {
		for i := range valid {
			doc := tmpl
			for k, fill := range valid {
				if k == i {
					fill = v
				}
				doc = strings.Replace(doc, "$"+strconv.Itoa(k), fill, 1)
			}
			add([]byte(doc))
		}
	}
}

func TestUnmarshalInstanceMatchesOracleOnSeeds(t *testing.T) {
	seedInstanceFuzz(func(doc []byte) { checkInstanceAgainstOracle(t, doc) })
}

func FuzzUnmarshalInstance(f *testing.F) {
	seedInstanceFuzz(func(doc []byte) { f.Add(doc) })
	f.Fuzz(checkInstanceAgainstOracle)
}

func TestUnmarshalInstanceRefusesDuplicateKeys(t *testing.T) {
	for _, doc := range []string{
		`{"tasks":[{"name":"a","cost":1}],"tasks":[],"speeds":[1]}`,
		`{"tasks":[{"name":"a","cost":1,"Cost":2}],"speeds":[1]}`,
		`{"tasks":[{"name":"a","cost":1}],"speeds":[1],"Speeds":[2]}`,
	} {
		if _, err := UnmarshalInstance([]byte(doc)); !errors.Is(err, jsonscan.ErrDuplicateKey) {
			t.Fatalf("%s: error %v, want a duplicate-key refusal", doc, err)
		}
	}
}

// TestAppendScheduleGolden holds the hand-written encoder to the
// reflective one: AppendSchedule to json.Marshal of the wire struct,
// MarshalSchedule to json.MarshalIndent, on every float shape the
// stdlib formats specially.
func TestAppendScheduleGolden(t *testing.T) {
	times := []float64{
		0, math.Copysign(0, -1), 1, 17, 1e21, 1e-7, 123456789.125, 0.1, 5e-324, 2.2250738585072014e-308, math.MaxFloat64,
	}
	full := &schedule.Schedule{NumNodes: 3}
	for i, x := range times {
		full.ByTask = append(full.ByTask, schedule.Assignment{Task: i, Node: i % 3, Start: x, End: -x})
	}
	for _, s := range []*schedule.Schedule{{}, {NumNodes: 4}, {NumNodes: -1, ByTask: []schedule.Assignment{}}, full} {
		js := jsonSchedule{NumNodes: s.NumNodes}
		for _, a := range s.ByTask {
			js.Assignments = append(js.Assignments, jsonAssignment(a))
		}
		want, err := json.Marshal(js)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendSchedule([]byte("prefix"), s)
		if err != nil || !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("AppendSchedule = %s, %v\njson.Marshal  = %s", got, err, want)
		}
		wantIndented, err := json.MarshalIndent(js, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		gotIndented, err := MarshalSchedule(s)
		if err != nil || !bytes.Equal(gotIndented, wantIndented) {
			t.Fatalf("MarshalSchedule = %s, %v\njson.MarshalIndent = %s", gotIndented, err, wantIndented)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, a := range []schedule.Assignment{{Start: bad}, {End: bad}} {
			if _, err := MarshalSchedule(&schedule.Schedule{NumNodes: 1, ByTask: []schedule.Assignment{a}}); err == nil {
				t.Fatalf("assignment %+v encoded", a)
			}
		}
	}
}
