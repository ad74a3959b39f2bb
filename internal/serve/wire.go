package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash"
	"math"
	"sync"

	"saga/internal/datasets"
	"saga/internal/graph"
	"saga/internal/jsonscan"
	"saga/internal/schedule"
	"saga/internal/serialize"
	"saga/internal/wfc"
)

// The wire path of /v1/schedule and /v1/robustness: one scan of the
// request envelope that decodes the payload and keys it, the miss's
// build from what it decoded, and the /v1/schedule response writer.
// Which storage is reused and what may alias it is ARCHITECTURE
// invariant 8.

// cacheKey identifies a submitted instance: the SHA-256 of its payload
// with the whitespace between tokens stripped (so it survives
// re-indentation), followed for a wfformat payload by the import knobs
// after their defaults are applied.
type cacheKey [sha256.Size]byte

// bodyKey identifies a /v1/schedule request by the SHA-256 of its exact
// body bytes; equal keys are the same envelope, spelling included.
type bodyKey [sha256.Size]byte

// wireState is what one request needs: the buffer a /v1/schedule body
// is read into, the hasher the envelope scan feeds, the key it closes
// into, the decoders the payload is read into, and the buffer the
// response is appended to. All of it is reused by the next request, so
// nothing a request leaves behind may alias it: the decoders' builds
// copy every byte the cached instance keeps, and the cache stores copies
// of responses and hashes of bodies.
type wireState struct {
	in   []byte
	h    hash.Hash
	key  cacheKey
	inst serialize.InstanceDecoder
	wfc  wfc.Decoder
	out  []byte

	// knobs is finish's NUL byte and wfformat import knobs, kept here
	// because a local array written through ws.h would escape to the
	// heap on every wfformat request. Byte 0 is never written.
	knobs [25]byte
}

var wirePool = sync.Pool{New: func() any { return &wireState{h: sha256.New()} }}

// maxPooledWire is the most storage a wireState may hold and still go
// back to wirePool: a request with a body near the 64 MiB limit, or a
// payload of tens of thousands of tasks, leaves its buffers to the
// collector instead of pinning them in the pool. A state that has
// served serve_cold's whole 2 048-body mix holds about 70 KB.
const maxPooledWire = 4 << 20

// footprint reports the bytes of the storage ws keeps for the next
// request.
func (ws *wireState) footprint() int {
	return cap(ws.in) + cap(ws.out) + ws.inst.Footprint() + ws.wfc.Footprint()
}

// putWire returns ws to wirePool unless its storage has grown past
// maxPooledWire, and reports whether it did.
func putWire(ws *wireState) bool {
	if ws.footprint() > maxPooledWire {
		return false
	}
	wirePool.Put(ws)
	return true
}

// The envelope's keys, in the order scanEnvelope's switch numbers them;
// a schedule request knows only the first scheduleFields of them.
var envelopeFields = []string{"scheduler", "instance", "wfc", "link", "ccr", "nodes", "sigma", "n", "seed"}

const scheduleFields = 6

// envelope is what one endpoint's scan is given: the keys the endpoint
// knows, and the request a key the body leaves out (or sends as null)
// leaves as it is.
type envelope struct {
	fields   []string
	defaults RobustnessRequest
}

var (
	scheduleEnvelope   = &envelope{fields: envelopeFields[:scheduleFields]}
	robustnessEnvelope = &envelope{fields: envelopeFields, defaults: robustnessDefaults}
)

// scanEnvelope decodes a request body with the field semantics of
// encoding/json over e.defaults, knowing only e.fields — except that a
// repeated key is refused. A schedule request's envelope is a
// RobustnessRequest whose sweep keys stay zero. Instance and WfC alias
// the body. The payload is also decoded into ws's decoder for its kind,
// and its bytes, whitespace stripped, stream into ws.h on the same pass;
// a payload that is valid JSON but not a document of its kind is no
// error of the envelope, and its decoder keeps the refusal for the
// build to report.
func scanEnvelope(body []byte, e *envelope, ws *wireState) (env RobustnessRequest, err error) {
	env = e.defaults
	ws.h.Reset()
	s := jsonscan.New(body)
	if s.Object() {
		var seen uint32
		for {
			field, ok := s.Field(e.fields, &seen)
			if !ok {
				break
			}
			switch {
			case field < 0:
				s.Skip()
			case field == 1:
				env.Instance = ws.payload(&s, false)
			case field == 2:
				env.WfC = ws.payload(&s, true)
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

// payload reads the payload at s's offset into the decoder of its
// kind, teeing its compacted bytes into ws.h, and returns its bytes.
// When the decoder refuses it, the scanner rewinds to the payload's
// start and skips it instead, so that only a fault of the JSON itself
// is an error of the envelope, and the decoder keeps its refusal. The
// rewind restarts ws.h: whatever else it held is another payload, and a
// request with two is refused anyway.
func (ws *wireState) payload(s *jsonscan.Scanner, wfformat bool) []byte {
	start := *s
	s.Tee(ws.h)
	// Called directly, not through a func value, so that s stays on its
	// caller's stack.
	if wfformat {
		ws.wfc.Scan(s)
	} else {
		ws.inst.Scan(s)
	}
	raw := s.EndTee()
	if s.Err() != nil {
		*s = start
		ws.h.Reset()
		raw = s.SkipTo(ws.h)
	}
	return raw
}

// finish completes what scanEnvelope began: it refuses an envelope
// without exactly one payload, replaces the import knobs of a wfformat
// payload by what datasets.InstanceFromWfC will use — link ≤ 0 means 1,
// nodes ≤ 0 means 4, ccr ≤ 0 means no override — and only then closes
// the cache key in ws.h over them into ws.key, so that two spellings of
// one import share one cache entry.
func (env *RobustnessRequest) finish(ws *wireState) error {
	switch {
	case len(env.Instance) > 0 && len(env.WfC) > 0:
		return errors.New("instance and wfc are mutually exclusive")
	case len(env.Instance) == 0 && len(env.WfC) == 0:
		return errors.New("one of instance or wfc is required")
	case len(env.WfC) > 0:
		if env.Link <= 0 {
			env.Link = 1
		}
		if env.Nodes <= 0 {
			env.Nodes = 4
		}
		if env.CCR <= 0 {
			env.CCR = 0
		}
	}
	if len(env.WfC) > 0 {
		// A NUL cannot occur in the payload, so it parts payload from
		// knobs and a wfformat key from every instance key.
		knobs := ws.knobs[:]
		binary.LittleEndian.PutUint64(knobs[1:], math.Float64bits(env.Link))
		binary.LittleEndian.PutUint64(knobs[9:], math.Float64bits(env.CCR))
		binary.LittleEndian.PutUint64(knobs[17:], uint64(env.Nodes))
		ws.h.Write(knobs)
	}
	ws.h.Sum(ws.key[:0])
	return nil
}

// instance builds the instance of a /v1/schedule miss or a wfformat
// /v1/robustness request from the payload the envelope scan decoded
// into ws: the decoder's refusal if it kept one, else a
// validated instance that shares no memory with ws. env is the finished
// envelope, so a wfformat import's knobs carry their defaults.
func (ws *wireState) instance(env *RobustnessRequest) (*graph.Instance, error) {
	if len(env.Instance) > 0 {
		return ws.inst.Instance()
	}
	doc, err := ws.wfc.Document()
	if err != nil {
		return nil, err
	}
	return datasets.ImportWfC(doc, env.Link, env.CCR, env.Nodes)
}

// appendScheduleResponse appends the /v1/schedule response body: the
// bytes httpx.WriteJSON writes for a ScheduleResponse whose Schedule is
// serialize.MarshalSchedule's output.
func appendScheduleResponse(dst []byte, scheduler string, s *schedule.Schedule) ([]byte, error) {
	dst = append(dst, `{"scheduler":`...)
	dst = jsonscan.AppendString(dst, scheduler)
	dst = append(dst, `,"makespan":`...)
	dst, err := jsonscan.AppendFloat(dst, s.Makespan())
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"schedule":`...)
	if dst, err = serialize.AppendSchedule(dst, s); err != nil {
		return dst, err
	}
	return append(dst, "}\n"...), nil
}
