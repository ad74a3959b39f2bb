package serve

// The two-pass /v1/schedule path as it stood before the envelope scan
// decoded its payload, kept verbatim as the oracle of the one-pass path:
// scanEnvelopeTwoPass validates the payload with SkipTo while keying it,
// and decodeInstanceTwoPass decodes the payload's bytes again on a miss.
// checkAgainstTwoPass demands of the one pass the same verdict, key and
// instance; TestOnePassMatchesTwoPass runs it over whole miss bodies,
// and checkEnvelopeAgainstOracle (the envelope fuzz target) over every
// envelope it is given.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"saga/internal/datasets"
	"saga/internal/graph"
	"saga/internal/jsonscan"
	"saga/internal/serialize"
)

// scanEnvelopeTwoPass decodes a request body with the field semantics of
// encoding/json over ScheduleRequest or, when robustness is set, over
// robustnessDefaults — except that a repeated key is refused — and
// streams the payload's bytes, whitespace stripped, into h unless h is
// nil. A schedule request's envelope is a RobustnessRequest whose sweep
// keys stay zero. Instance and WfC alias the body.
func scanEnvelopeTwoPass(body []byte, robustness bool, h hash.Hash) (env RobustnessRequest, err error) {
	fields := envelopeFields
	if robustness {
		env = robustnessDefaults
	} else {
		fields = fields[:scheduleFields]
	}
	if h != nil {
		h.Reset()
	}
	s := jsonscan.New(body)
	if s.Object() {
		var seen uint32
		for {
			field, ok := s.Field(fields, &seen)
			if !ok {
				break
			}
			switch {
			case field < 0:
				s.Skip()
			case field == 1:
				// With both payloads present the request is refused, so
				// it does not matter that they share the hasher.
				env.Instance = s.SkipTo(h)
			case field == 2:
				env.WfC = s.SkipTo(h)
			case s.Null():
			case field == 0:
				env.Scheduler = string(s.String())
			case field == 3:
				env.Link = s.Float()
			case field == 4:
				env.CCR = s.Float()
			case field == 5:
				env.Nodes = s.Int()
			case field == 6:
				env.Sigma = s.Float()
			case field == 7:
				env.N = s.Int()
			case field == 8:
				env.Seed = s.Uint64()
			}
		}
	}
	return env, s.End()
}

// decodeInstanceTwoPass parses and validates a request's instance, answering
// 400 when it cannot.
func decodeInstanceTwoPass(w http.ResponseWriter, env *RobustnessRequest) (*graph.Instance, bool) {
	var inst *graph.Instance
	var err error
	if len(env.Instance) > 0 {
		inst, err = serialize.UnmarshalInstance(env.Instance)
	} else {
		// The knobs arrive with their defaults applied (envelope.finish).
		inst, err = datasets.InstanceFromWfC(env.WfC, env.Link, env.CCR, env.Nodes)
	}
	if err != nil {
		http.Error(w, fmt.Sprintf("bad instance: %v", err), http.StatusBadRequest)
		return nil, false
	}
	return inst, true
}

// aliasProbe is a body whose payloads overwrite what a wireState's
// decoders held: scanned after a miss's build, it changes nothing the
// built instance may keep.
var aliasProbe = []byte(`{"scheduler":"HEFT","instance":{"tasks":[{"name":"zzzzzzzz","cost":9},{"name":"yyyyyyyy","cost":8}],` +
	`"deps":[{"from":0,"to":1,"cost":7}],"speeds":[3,4],"links":[{"u":0,"v":1,"strength":5}]},` +
	`"wfc":{"name":"xxxxxxxx","workflow":{"tasks":[{"name":"wwwwwwww","id":"vvvvvvvv","runtimeInSeconds":2,"parents":[],` +
	`"files":[{"name":"uuuuuuuu","link":"output","sizeInBytes":6}]}],"machines":[{"nodeName":"tttttttt","speed":2}]}}}`)

// checkAgainstTwoPass holds the one-pass /v1/schedule path to the
// two-pass oracle on one body: the same envelope verdict (error text
// included, since both meet an envelope fault with SkipTo from the same
// offset), the same envelope and cache key, and on a miss the same
// build verdict and a reflect.DeepEqual instance, which must still be
// equal after the wireState has scanned another body. Build errors may
// differ in their offsets: the one pass counts them from the start of
// the body.
func checkAgainstTwoPass(t *testing.T, body []byte) {
	t.Helper()
	ws := &wireState{h: sha256.New()}
	got, err := scanEnvelope(body, scheduleEnvelope, ws)
	if err == nil {
		err = got.finish(ws)
	}
	ref := &wireState{h: sha256.New()}
	want, wantErr := scanEnvelopeTwoPass(body, false, ref.h)
	if wantErr == nil {
		wantErr = want.finish(ref)
	}
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%.200q:\none pass: %v\ntwo pass: %v", body, err, wantErr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got, want) || ws.key != ref.key {
		t.Fatalf("%.200q:\none pass read %+v, key %x\ntwo pass read %+v, key %x", body, got, ws.key, want, ref.key)
	}
	inst, err := ws.instance(&got)
	wantInst, ok := decodeInstanceTwoPass(httptest.NewRecorder(), &want)
	if (err == nil) != ok {
		t.Fatalf("%.200q: one pass built %v (error %v), two pass %v", body, inst != nil, err, ok)
	}
	if !ok {
		return
	}
	if !reflect.DeepEqual(inst, wantInst) {
		t.Fatalf("%.200q:\none pass built %+v / %+v\ntwo pass built %+v / %+v", body, inst.Graph, inst.Net, wantInst.Graph, wantInst.Net)
	}
	if _, err := scanEnvelope(aliasProbe, scheduleEnvelope, ws); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inst, wantInst) {
		t.Fatalf("%.200q: the built instance changed when its wireState scanned another body:\n%+v\nwant %+v", body, inst.Graph, wantInst.Graph)
	}
}

// TestOnePassMatchesTwoPass runs the two-pass oracle over cold-mix
// bodies of both kinds, each also re-indented, one wireState serving
// them all in turn, as a pooled one does, and over the envelope seeds.
func TestOnePassMatchesTwoPass(t *testing.T) {
	bodies := append(missBodies(t, 18, false), missBodies(t, 18, true)...)
	for _, body := range bodies {
		var indented bytes.Buffer
		if err := json.Indent(&indented, body, "", "\t"); err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, indented.Bytes())
	}
	for _, body := range bodies {
		checkAgainstTwoPass(t, body)
	}
	for _, body := range envelopeSeeds {
		checkAgainstTwoPass(t, []byte(body))
	}
	// One wireState, bodies in turn: a decoder's reused storage must not
	// carry one request into the next.
	ws := &wireState{h: sha256.New()}
	for i, body := range bodies {
		env, err := scanEnvelope(body, scheduleEnvelope, ws)
		if err == nil {
			err = env.finish(ws)
		}
		if err != nil {
			t.Fatal(err)
		}
		inst, err := ws.instance(&env)
		want, ok := decodeInstanceTwoPass(httptest.NewRecorder(), &env)
		if err != nil || !ok || !reflect.DeepEqual(inst, want) {
			t.Fatalf("body %d decoded after %d others differs from the oracle (%v)", i, i, err)
		}
	}
}

// TestPutWireDropsOversizedState: a wireState goes back to the pool
// while its buffers and its decoders' storage fit maxPooledWire, and is
// dropped once any of them pushes it over.
func TestPutWireDropsOversizedState(t *testing.T) {
	ws := &wireState{h: sha256.New()}
	for _, body := range append(missBodies(t, 2, false), missBodies(t, 2, true)...) {
		if _, err := scanEnvelope(body, scheduleEnvelope, ws); err != nil {
			t.Fatal(err)
		}
	}
	if n := ws.footprint(); n == 0 || n > maxPooledWire {
		t.Fatalf("a wireState that decoded four cold-mix bodies reports %d bytes", n)
	}
	if !putWire(ws) {
		t.Fatal("a small wireState was dropped")
	}
	big := &wireState{h: sha256.New(), in: make([]byte, 0, maxPooledWire+1)}
	if putWire(big) {
		t.Fatal("a wireState holding a body buffer over the ceiling was pooled")
	}
	// A payload of many small tasks grows the decoder, not the buffers.
	var doc bytes.Buffer
	doc.WriteString(`{"scheduler":"HEFT","instance":{"speeds":[1],"tasks":[`)
	const tasks = maxPooledWire / 16
	for i := 0; i < tasks; i++ {
		if i > 0 {
			doc.WriteByte(',')
		}
		doc.WriteString(`{"cost":1}`)
	}
	doc.WriteString(`]}}`)
	wide := &wireState{h: sha256.New()}
	if _, err := scanEnvelope(doc.Bytes(), scheduleEnvelope, wide); err != nil {
		t.Fatal(err)
	}
	if n := wide.footprint(); n < tasks*16 {
		t.Fatalf("a wireState that decoded %d tasks reports %d bytes", tasks, n)
	}
	if putWire(wide) {
		t.Fatal("a wireState whose decoder outgrew the ceiling was pooled")
	}
}
