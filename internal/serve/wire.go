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
// scanned once (scanEnvelope), and on that one pass scalar fields are
// read in place, the instance or wfformat payload comes back as a
// sub-slice of the body, and its bytes stream into the SHA-256 behind
// the cache key — so a cache hit never decodes the payload and never
// copies it. The /v1/schedule response is appended into a pooled buffer
// and written once.

// cacheKey identifies a submitted instance: the SHA-256 of its payload
// with the whitespace between tokens stripped (so it survives
// re-indentation), followed for a wfformat payload by the import knobs
// after their defaults are applied.
type cacheKey [sha256.Size]byte

// wireState is what one request needs besides its body: the hasher the
// envelope scan feeds and the buffer the response is appended to.
type wireState struct {
	h   hash.Hash
	out []byte
}

var wirePool = sync.Pool{New: func() any { return &wireState{h: sha256.New()} }}

// envelope is the decoded body of a schedule or robustness request.
// Instance and WfC alias the body.
type envelope struct {
	Scheduler string
	Instance  []byte
	WfC       []byte
	Link      float64
	CCR       float64
	Nodes     int
	// Robustness requests only.
	Sigma float64
	N     int
	Seed  uint64
}

// The envelope's keys, in the order scanEnvelope's switch numbers them;
// a schedule request knows only the first scheduleFields of them.
var envelopeFields = []string{"scheduler", "instance", "wfc", "link", "ccr", "nodes", "sigma", "n", "seed"}

const scheduleFields = 6

// scanEnvelope decodes a request body with the field semantics of
// encoding/json over ScheduleRequest or, when robustness is set,
// RobustnessRequest — except that a repeated key is refused — and
// streams the payload's bytes, whitespace stripped, into h.
func scanEnvelope(body []byte, robustness bool, h hash.Hash) (env envelope, err error) {
	fields := envelopeFields
	if !robustness {
		fields = fields[:scheduleFields]
	}
	h.Reset()
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
// nodes ≤ 0 means 4, ccr ≤ 0 means no override — and only then closes
// the cache key in h over them, so that two spellings of one import
// share one cache entry.
func (env *envelope) finish(h hash.Hash) (key cacheKey, err error) {
	switch {
	case len(env.Instance) > 0 && len(env.WfC) > 0:
		return key, errors.New("instance and wfc are mutually exclusive")
	case len(env.Instance) == 0 && len(env.WfC) == 0:
		return key, errors.New("one of instance or wfc is required")
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
		// A NUL cannot occur in the payload, so it parts payload from
		// knobs and a wfformat key from every instance key.
		var knobs [25]byte
		binary.LittleEndian.PutUint64(knobs[1:], math.Float64bits(env.Link))
		binary.LittleEndian.PutUint64(knobs[9:], math.Float64bits(env.CCR))
		binary.LittleEndian.PutUint64(knobs[17:], uint64(env.Nodes))
		h.Write(knobs[:])
	}
	h.Sum(key[:0])
	return key, nil
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
