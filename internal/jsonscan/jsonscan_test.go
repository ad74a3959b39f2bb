package jsonscan

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// hostile are documents chosen to sit on the grammar's edges; every test
// and fuzzer of the codecs built on this package seeds from shapes like
// these.
var hostile = []string{
	``, ` `, `null`, `true`, `false`, `nul`, `truee`, `0`, `-0`, `-`, `01`, `1.`, `.5`, `1e`, `1e+`, `1E-2`, `1e999`,
	`"a"`, `"a`, `"é"`, `"😀"`, `"\ud83d"`, `"\ude00\ud83d"`, `"\ud83dx"`, `"\ud83dA"`, `"\u12"`,
	`"\x"`, `"\'"`, "\"\x01\"", "\"\xff\"", "\"\xc3\x28\"", "\"a\tb\"", `"\/\b\f\n\r\t\\\""`,
	`[]`, `[ ]`, `[1,2]`, `[1,]`, `[,1]`, `[1 2]`, `[`, `]`, `[}`, `{}`, `{ }`, `{"a":1}`, `{"a":1,}`, `{,}`, `{"a"}`,
	`{"a":}`, `{a:1}`, `{"a":1 "b":2}`, `{"a":1]`, `{"a":{"b":[1,{"c":null}]}}`, `1 2`, `{} x`, "\x00", "1\x00",
	" \t\r\n[ 1 , \"x y\" , { \"k\" : [ ] } ] \n", strings.Repeat("[", MaxDepth) + strings.Repeat("]", MaxDepth),
	strings.Repeat("[", MaxDepth+1) + strings.Repeat("]", MaxDepth+1),
	strings.Repeat(`{"a":`, MaxDepth+1) + "1" + strings.Repeat("}", MaxDepth+1),
}

// checkAgainstStdlib holds Skip, SkipTo and String to encoding/json on
// one document: accepted iff json.Valid, compacted as json.Compact,
// strings decoded as json.Unmarshal decodes them.
func checkAgainstStdlib(t *testing.T, doc []byte) {
	t.Helper()
	var sink bytes.Buffer
	s := New(doc)
	raw := s.SkipTo(&sink)
	err := s.End()
	if valid := json.Valid(doc); valid != (err == nil) {
		t.Fatalf("%q: json.Valid %v, scanner error %v", doc, valid, err)
	}
	if err != nil {
		return
	}
	if want := bytes.TrimSpace(doc); !bytes.Equal(raw, want) {
		t.Fatalf("%q: Skip returned %q, want %q", doc, raw, want)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, doc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sink.Bytes(), compact.Bytes()) {
		t.Fatalf("%q: SkipTo wrote %q, json.Compact %q", doc, sink.Bytes(), compact.Bytes())
	}
	if raw[0] == '"' {
		var want string
		if err := json.Unmarshal(doc, &want); err != nil {
			t.Fatal(err)
		}
		s = New(doc)
		if got := string(s.String()); got != want || s.End() != nil {
			t.Fatalf("%q: String %q (%v), json.Unmarshal %q", doc, got, s.Err(), want)
		}
	}
}

func TestScannerAgreesWithStdlib(t *testing.T) {
	for _, doc := range hostile {
		checkAgainstStdlib(t, []byte(doc))
	}
}

func FuzzScanner(f *testing.F) {
	for _, doc := range hostile {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) { checkAgainstStdlib(t, doc) })
}

func TestStringAliasesInputUnlessEscaped(t *testing.T) {
	doc := []byte(`["plain","esc\n"]`)
	s := New(doc)
	s.Array()
	s.More()
	if plain := s.String(); &plain[0] != &doc[2] {
		t.Fatal("an unescaped string was copied")
	}
	s.More()
	if esc := s.String(); string(esc) != "esc\n" {
		t.Fatalf("escaped string decoded to %q", esc)
	}
	if s.More() || s.End() != nil {
		t.Fatal(s.Err())
	}
}

// point is the typed walk's test schema; decodePoint reads it the way
// the codecs read theirs.
type point struct {
	Name string
	X    float64
	N    int
	Seed uint64
	Tags []string
}

var pointFields = []string{"name", "x", "n", "seed", "tags"}

func decodePoint(doc []byte) (p point, err error) {
	s := New(doc)
	var seen uint32
	for ok := s.Object(); ok; {
		var i int
		if i, ok = s.Field(pointFields, &seen); !ok {
			break
		}
		switch i {
		case 0:
			if !s.Null() {
				p.Name = string(s.String())
			}
		case 1:
			if !s.Null() {
				p.X = s.Float()
			}
		case 2:
			if !s.Null() {
				p.N = s.Int()
			}
		case 3:
			if !s.Null() {
				p.Seed = s.Uint64()
			}
		case 4:
			if s.Array() {
				p.Tags = []string{}
				for s.More() {
					var tag string
					if !s.Null() {
						tag = string(s.String())
					}
					p.Tags = append(p.Tags, tag)
				}
			}
		default:
			s.Skip()
		}
	}
	return p, s.End()
}

func TestTypedWalkMatchesStdlib(t *testing.T) {
	type jsonPoint struct {
		Name string   `json:"name"`
		X    float64  `json:"x"`
		N    int      `json:"n"`
		Seed uint64   `json:"seed"`
		Tags []string `json:"tags"`
	}
	for _, doc := range []string{
		`null`, `{}`, `[]`, `3`, `{"name":"a","x":1.5,"n":-3,"seed":18446744073709551615,"tags":["p",null,"q"]}`,
		`{"NAME":"a","X":1,"ſeed":7,"tagſ":[]}`, `{"n\u0061me":"\u00e9\ud83d\ude00\ud800"}`, `{"name":null,"x":null,"n":null,"seed":null,"tags":null}`,
		`{"n":1.0}`, `{"n":1e2}`, `{"n":9223372036854775808}`, `{"n":-9223372036854775808}`, `{"seed":-1}`, `{"seed":18446744073709551616}`,
		`{"x":1e999}`, `{"x":-0}`, `{"x":"1"}`, `{"name":1}`, `{"tags":{}}`, `{"tags":[1]}`, `{"tags":[[]]}`, `{"x":01}`,
		`{"other":{"deep":[1,2,{"x":"y"}]},"x":2}`, `{"other":[1,}`, `{"x":1} trailing`, ` {"x" : 1 } `,
		`{"unknown":` + strings.Repeat("[", MaxDepth-1) + strings.Repeat("]", MaxDepth-1) + `}`,
		`{"unknown":` + strings.Repeat("[", MaxDepth) + strings.Repeat("]", MaxDepth) + `}`,
	} {
		var want jsonPoint
		wantErr := json.Unmarshal([]byte(doc), &want)
		got, err := decodePoint([]byte(doc))
		if (wantErr == nil) != (err == nil) {
			t.Fatalf("%.80q: json.Unmarshal error %v, scanner error %v", doc, wantErr, err)
		}
		if err == nil && !reflect.DeepEqual(got, point(want)) {
			t.Fatalf("%.80q: decoded %+v, json.Unmarshal %+v", doc, got, want)
		}
	}
}

func TestDuplicateKeyIsAnError(t *testing.T) {
	for _, doc := range []string{`{"x":1,"x":2}`, `{"x":1,"X":2}`, `{"tags":["a","b"],"tags":["c"]}`} {
		if _, err := decodePoint([]byte(doc)); !errors.Is(err, ErrDuplicateKey) {
			t.Fatalf("%s: error %v, want ErrDuplicateKey", doc, err)
		}
	}
	// An unknown key is nobody's field: repeated or not, it is skipped.
	if _, err := decodePoint([]byte(`{"other":1,"other":2,"x":3}`)); err != nil {
		t.Fatal(err)
	}
}

func TestErrorsCarryTheOffset(t *testing.T) {
	_, err := decodePoint([]byte(`{"x": tru}`))
	if err == nil || !strings.Contains(err.Error(), "offset 6") {
		t.Fatalf("error %v does not point at offset 6", err)
	}
}

func TestAppendFloatMatchesStdlib(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 42, 1e20, 1e21, 1.5e21, 1e-6, 1e-7, 9.99e-7, 123456789.125, 0.1, 1.0 / 3,
		5e-324, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1e100, 1e-100,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendFloat(nil, f)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("AppendFloat(%v) = %s, %v; json.Marshal %s", f, got, err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := AppendFloat(nil, f); err == nil {
			t.Fatalf("AppendFloat(%v) succeeded", f)
		}
	}
}

func TestAppendStringMatchesStdlib(t *testing.T) {
	for _, s := range []string{
		"", "HEFT", "a b", `q"q`, `b\s`, "<&>", "\x00\x01\b\f\n\r\t\x1f\x7f", "é", "日本語", "\u2028\u2029", "\xff", "a\xc3", "😀",
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("AppendString(%q) = %s, json.Marshal %s", s, got, want)
		}
	}
}
