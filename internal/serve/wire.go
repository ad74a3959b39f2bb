package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash"
	"math"
	"sync"

	"saga/internal/jsonscan"
	"saga/internal/schedule"
	"saga/internal/serialize"
)

// The wire path of /v1/schedule and /v1/robustness: the request body is
// scanned at most once (scanEnvelope), and on that one pass scalar
// fields are read in place, the instance or wfformat payload comes back
// as a sub-slice of the body, and its bytes stream into the SHA-256
// behind the cache key — so a cache hit never decodes the payload and
// never copies it. Only /v1/schedule keys its envelope: a robustness
// sweep is built from its instance bytes (experiments.NewSweep parses
// them), so its scan is given no hasher. The /v1/schedule response is
// appended into a pooled buffer and written once; on a cache hit a copy
// of it stays with the cache entry, and the next hit for the same
// scheduler writes that copy instead (cache.go). The copy is also keyed
// by the SHA-256 of the whole request body that stored it (bodyKey), and
// while any copy is stored every /v1/schedule body is hashed so first: a
// byte-identical repeat is answered with no scan at all.

// cacheKey identifies a submitted instance: the SHA-256 of its payload
// with the whitespace between tokens stripped (so it survives
// re-indentation), followed for a wfformat payload by the import knobs
// after their defaults are applied.
type cacheKey [sha256.Size]byte

// bodyKey identifies a /v1/schedule request by the SHA-256 of its exact
// body bytes; equal keys are the same envelope, spelling included.
type bodyKey [sha256.Size]byte

// wireState is what one /v1/schedule request needs: the buffer its body
// is read into, the hasher the envelope scan feeds, the key it closes
// into, and the buffer the response is appended to. The body buffer is
// reused by the next request, so nothing a request leaves behind may
// alias it: the decoders copy every string they keep, and the cache
// stores copies of responses and hashes of bodies.
type wireState struct {
	in  []byte
	h   hash.Hash
	key cacheKey
	out []byte
}

var wirePool = sync.Pool{New: func() any { return &wireState{h: sha256.New()} }}

// The envelope's keys, in the order scanEnvelope's switch numbers them;
// a schedule request knows only the first scheduleFields of them.
var envelopeFields = []string{"scheduler", "instance", "wfc", "link", "ccr", "nodes", "sigma", "n", "seed"}

const scheduleFields = 6

// scanEnvelope decodes a request body with the field semantics of
// encoding/json over ScheduleRequest or, when robustness is set, over
// robustnessDefaults — except that a repeated key is refused — and
// streams the payload's bytes, whitespace stripped, into h unless h is
// nil. A schedule request's envelope is a RobustnessRequest whose sweep
// keys stay zero. Instance and WfC alias the body.
func scanEnvelope(body []byte, robustness bool, h hash.Hash) (env RobustnessRequest, err error) {
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

// finish completes what scanEnvelope began: it refuses an envelope
// without exactly one payload, replaces the import knobs of a wfformat
// payload by what datasets.InstanceFromWfC will use — link ≤ 0 means 1,
// nodes ≤ 0 means 4, ccr ≤ 0 means no override — and only then, unless
// ws is nil, closes the cache key in ws.h over them into ws.key, so that
// two spellings of one import share one cache entry.
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
	if ws == nil {
		return nil
	}
	if len(env.WfC) > 0 {
		// A NUL cannot occur in the payload, so it parts payload from
		// knobs and a wfformat key from every instance key.
		var knobs [25]byte
		binary.LittleEndian.PutUint64(knobs[1:], math.Float64bits(env.Link))
		binary.LittleEndian.PutUint64(knobs[9:], math.Float64bits(env.CCR))
		binary.LittleEndian.PutUint64(knobs[17:], uint64(env.Nodes))
		ws.h.Write(knobs[:])
	}
	ws.h.Sum(ws.key[:0])
	return nil
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
