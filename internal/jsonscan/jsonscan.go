// Package jsonscan is the strict pull scanner the `saga serve` wire path
// is built on: one forward pass over a []byte, no reflection, no
// intermediate tree. The hand-written codecs of /v1/schedule — the
// request envelope in internal/serve, serialize.UnmarshalInstance,
// wfc.Parse — pull tokens from a Scanner; serialize.AppendSchedule and
// the response writer push them with AppendFloat and AppendString. A
// leaf package: it imports only the standard library.
//
// Grammar. Exactly RFC 8259 as encoding/json reads it, so a document is
// accepted here if and only if json.Valid accepts it:
//
//	value  = object | array | string | number | "true" | "false" | "null"
//	object = "{" [ string ":" value { "," string ":" value } ] "}"
//	array  = "[" [ value { "," value } ] "]"
//	number = [ "-" ] ( "0" | digit1-9 { digit } ) [ "." digit { digit } ]
//	         [ ( "e" | "E" ) [ "+" | "-" ] digit { digit } ]
//	string = '"' { any byte >= 0x20 except '"' and '\' | escape } '"'
//	escape = '\' ( '"' | '\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' | 'u' 4hex )
//
// with space, tab, CR and LF allowed between tokens and nothing but
// those after the top-level value (End). Strings decode as the stdlib
// decodes them: a string without escapes and with valid UTF-8 is
// returned as a sub-slice of the input, anything else is copied with
// escapes resolved, surrogate pairs joined, and lone surrogates and
// invalid UTF-8 replaced by U+FFFD. Numbers go through strconv — an
// integer of at most 18 digits is parsed in place, to the value strconv
// gives — so an integer field refuses "1.0" and "1e2", and a float field
// refuses "1e999".
//
// Nesting cap. Objects and arrays may nest 10 000 deep, the stdlib's
// limit; level 10 001 is an error wherever it occurs, including inside
// a value that is only skipped.
//
// Duplicate keys. Field resolves an object key to one of the caller's
// field names — matched exactly, then under Unicode case folding, as
// the stdlib matches struct fields — and a second key that resolves to
// an already-seen field of the same object is an error
// (ErrDuplicateKey). This is the one place the decoders built on this
// package are stricter than encoding/json, which decodes the later
// value on top of the earlier one (for a slice: element-wise, into
// stale elements). Keys that match no field are validated, skipped and
// not tracked.
//
// Errors are sticky: after the first one every method is a no-op that
// reports "nothing more", so a decoder runs to its end without
// checking each call and asks Err once. Every error carries the byte
// offset it was found at. A Scanner is a plain value: a copy taken
// before a value is a point to rewind to, error and all.
//
// Teeing. Between Tee and EndTee every byte the scanner consumes, by
// whichever methods, is also written to a writer, without the
// whitespace between tokens: a decoder reading a value can feed a hash
// of its compacted bytes in the same pass (SkipTo is Tee around Skip).
package jsonscan

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"
)

// MaxDepth is how deep objects and arrays may nest (encoding/json's
// limit).
const MaxDepth = 10000

// ErrDuplicateKey is wrapped by the error Field records when two keys
// of one object resolve to the same field.
var ErrDuplicateKey = errors.New("duplicate key")

// Scanner reads one JSON document front to back. The zero value is not
// usable; start with New.
type Scanner struct {
	data  []byte
	pos   int
	depth int
	// first is true between an opening bracket and its first member, so
	// Field and More know whether a comma is due.
	first bool
	err   error
	// sink, seg and mark serve Tee: where the value is copied to, where
	// the run of its bytes not yet written begins, and where it began.
	sink io.Writer
	seg  int
	mark int
}

// New returns a scanner positioned at the start of data.
func New(data []byte) Scanner {
	return Scanner{data: data}
}

// Err returns the first error met, or nil.
func (s *Scanner) Err() error { return s.err }

// Errorf records an error at the current offset unless one is already
// recorded. Decoders use it for their own refusals (a link out of
// range) so those carry an offset too.
func (s *Scanner) Errorf(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf(format+" at offset %d", append(args, s.pos)...)
	}
}

// unexpected records what stands at the current offset where want was
// due.
func (s *Scanner) unexpected(want string) {
	if s.err != nil {
		return
	}
	if s.pos >= len(s.data) {
		s.err = fmt.Errorf("unexpected end of JSON input at offset %d, want %s", s.pos, want)
		return
	}
	s.err = fmt.Errorf("invalid character %q at offset %d, want %s", s.data[s.pos], s.pos, want)
}

func isSpace(c byte) bool { return c == ' ' || c == '\n' || c == '\t' || c == '\r' }

// Peek skips whitespace and returns the first byte of the next token
// without consuming it — enough to tell a string from a number — or 0
// at the end of the input or after an error. While teeing, it hands the
// run of bytes in front of the whitespace to the sink first.
func (s *Scanner) Peek() byte {
	if s.err != nil {
		return 0
	}
	data, i := s.data, s.pos
	if i < len(data) && data[i] > ' ' {
		return data[i]
	}
	if s.sink != nil {
		s.flush()
	}
	for ; i < len(data); i++ {
		if c := data[i]; c > ' ' || !isSpace(c) {
			s.pos, s.seg = i, i
			return c
		}
	}
	s.pos, s.seg = len(data), len(data)
	return 0
}

// open consumes the bracket c. It reports false, without an error,
// when the value is null instead.
func (s *Scanner) open(c byte, want string) bool {
	switch s.Peek() {
	case c:
		if s.depth >= MaxDepth {
			s.Errorf("exceeded max depth %d", MaxDepth)
			return false
		}
		s.depth++
		s.pos++
		s.first = true
		return true
	case 'n':
		s.literal("null")
	default:
		s.unexpected(want)
	}
	return false
}

// close consumes the closing bracket the caller has just seen.
func (s *Scanner) close() {
	s.pos++
	s.depth--
	s.first = false
}

// Object consumes the "{" of an object. It reports false when the value
// is null (consumed, no error: the stdlib leaves the destination as it
// is) or not an object (error recorded). After true, call Field until
// it reports false.
func (s *Scanner) Object() bool { return s.open('{', "object") }

// Array consumes the "[" of an array, with Object's handling of null
// and mismatches. After true, call More before each element until it
// reports false.
func (s *Scanner) Array() bool { return s.open('[', "array") }

// comma consumes what separates members: nothing before the first one,
// a comma before the others. It reports false, having consumed the
// closing bracket end, when there are no more members.
func (s *Scanner) comma(end byte) bool {
	c := s.Peek()
	switch {
	case c == end:
		s.close()
		return false
	case s.first:
		s.first = false
		return s.err == nil
	case c == ',':
		s.pos++
		return true
	}
	s.unexpected("',' or '" + string(end) + "'")
	return false
}

// More reports whether another array element follows, consuming the
// comma before it or the closing "]".
func (s *Scanner) More() bool {
	if !s.comma(']') {
		return false
	}
	// "[,", "[1,]": an element must start here. The element's own reader
	// reports anything that is not a value; a closing bracket is the one
	// byte More would otherwise take for the end of the array.
	if s.Peek() == ']' {
		s.unexpected("value")
		return false
	}
	return s.err == nil
}

// Field reads the next key of an object and resolves it against the
// caller's field names (at most 32, each spelled in JSON as itself: no
// quote, backslash, control byte or invalid UTF-8): it returns the index
// in names of the field the key selects — the name equal to the key,
// else the first one equal under Unicode case folding — or -1 for a key
// that selects none (the caller skips the value). seen holds one bit per
// field of the object being read; a key selecting a field whose bit is
// set is an ErrDuplicateKey error. ok is false at the closing "}"
// (consumed).
func (s *Scanner) Field(names []string, seen *uint32) (index int, ok bool) {
	if !s.comma('}') {
		return -1, false
	}
	if s.Peek() != '"' {
		s.unexpected("object key")
		return -1, false
	}
	// The common key is a name as it stands, quotes and all: compared in
	// place, it needs no decoding. Only a key matching no name that way
	// is decoded, and may still equal one once its escapes are resolved.
	index = s.plainField(names)
	if index < 0 {
		key := s.String()
		for i, name := range names {
			if string(key) == name {
				index = i
				break
			}
		}
		if index < 0 {
			for i, name := range names {
				if bytes.EqualFold(key, []byte(name)) {
					index = i
					break
				}
			}
		}
	}
	if s.Peek() != ':' {
		s.unexpected("':'")
		return -1, false
	}
	s.pos++
	if index >= 0 {
		bit := uint32(1) << uint(index)
		if *seen&bit != 0 {
			s.Errorf("%w %q", ErrDuplicateKey, names[index])
			return -1, false
		}
		*seen |= bit
	}
	return index, true
}

// plainField consumes the quoted key at the current offset and returns
// its index in names when it is one of them byte for byte; it returns -1
// and consumes nothing otherwise.
func (s *Scanner) plainField(names []string) int {
	data, start := s.data, s.pos+1
	for i, name := range names {
		if end := start + len(name); end < len(data) && data[end] == '"' && string(data[start:end]) == name {
			s.pos = end + 1
			return i
		}
	}
	return -1
}

// literal consumes the given word.
func (s *Scanner) literal(word string) {
	if s.err != nil {
		return
	}
	for i := 0; i < len(word); i++ {
		if s.pos >= len(s.data) || s.data[s.pos] != word[i] {
			s.unexpected("literal " + word)
			return
		}
		s.pos++
	}
}

// Null consumes a null if that is the next value and reports whether
// it did. Scalar readers do not accept null; a decoder that wants the
// stdlib's "null leaves the field alone" asks Null first.
func (s *Scanner) Null() bool {
	if s.Peek() != 'n' {
		return false
	}
	s.literal("null")
	return s.err == nil
}

// String reads a string value and returns its decoded bytes: a
// sub-slice of the input when the string has no escapes and is valid
// UTF-8, a fresh slice otherwise.
func (s *Scanner) String() []byte {
	if s.Peek() != '"' {
		s.unexpected("string")
		return nil
	}
	start := s.pos + 1
	end, plain := s.stringEnd(start)
	if s.err != nil {
		return nil
	}
	s.pos = end + 1
	if plain {
		return s.data[start:end]
	}
	return unquote(s.data[start:end])
}

// Strings is a decoder's string store: Keep copies a decoded string
// into a shared block instead of allocating it on its own, so a
// document's many short strings cost a few allocations. A kept string
// is never written again until Reset, and a block lives as long as any
// string kept in it. The zero value is ready to use; a Strings must not
// be copied once used.
type Strings struct {
	block []byte
	// kept counts the bytes kept since the last Reset.
	kept int
}

// Block sizes of a Strings: each new block doubles the last, from
// minBlock up to maxBlock, and is at least as long as the string that
// opened it.
const (
	minBlock = 256
	maxBlock = 8 << 10
)

// Keep returns p as a string held in the store.
func (st *Strings) Keep(p []byte) string {
	if len(p) == 0 {
		return ""
	}
	st.kept += len(p)
	if cap(st.block)-len(st.block) < len(p) {
		size := max(min(2*cap(st.block), maxBlock), minBlock, len(p))
		st.block = make([]byte, 0, size)
	}
	start := len(st.block)
	st.block = append(st.block, p...)
	return unsafe.String(&st.block[start], len(p))
}

// Reset lets the store write its memory again, for a decoder that reads
// one document after another and whose kept strings are dead by then:
// every string kept before Reset may change afterwards. It keeps one
// block large enough for everything kept since the last Reset, so
// documents of a size the store has already seen fill it without
// allocating.
func (st *Strings) Reset() {
	if st.kept > cap(st.block) {
		st.block = make([]byte, 0, st.kept)
	}
	st.block, st.kept = st.block[:0], 0
}

// Cap reports the bytes of the block Reset would keep.
func (st *Strings) Cap() int { return max(cap(st.block), st.kept) }

// stringEnd validates the string whose first content byte is at i and
// returns the offset of its closing quote. plain is true when the
// content needs no decoding.
func (s *Scanner) stringEnd(i int) (end int, plain bool) {
	data := s.data
	plain = true
	for i < len(data) {
		c := data[i]
		switch {
		case c == '"':
			return i, plain
		case c == '\\':
			plain = false
			i++
			if i >= len(data) {
				break
			}
			switch data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				for k := 1; k <= 4; k++ {
					if i+k >= len(data) || !isHex(data[i+k]) {
						s.pos = min(i+k, len(data))
						s.unexpected(`hexadecimal digit in \u escape`)
						return 0, false
					}
				}
				i += 5
			default:
				s.pos = i
				s.unexpected("escape character")
				return 0, false
			}
		case c < 0x20:
			s.pos = i
			s.unexpected("string content (control characters must be escaped)")
			return 0, false
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && size == 1 {
				plain = false
			}
			i += size
		}
	}
	s.pos = len(data)
	s.unexpected("closing '\"'")
	return 0, false
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// unquote decodes validated string content the way encoding/json does.
func unquote(in []byte) []byte {
	out := make([]byte, 0, len(in))
	for r := 0; r < len(in); {
		c := in[r]
		switch {
		case c == '\\':
			r++
			switch in[r] {
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				rr := hex4(in[r+1:])
				r += 4
				if utf16.IsSurrogate(rr) {
					// A pair needs a second \u escape right behind the
					// first; anything else leaves the first one lone.
					lo := rune(-1)
					if r+6 < len(in) && in[r+1] == '\\' && in[r+2] == 'u' {
						lo = hex4(in[r+3:])
					}
					if dec := utf16.DecodeRune(rr, lo); dec != unicode.ReplacementChar {
						r += 6
						rr = dec
					} else {
						rr = unicode.ReplacementChar
					}
				}
				out = utf8.AppendRune(out, rr)
			default: // '"', '\\', '/'
				out = append(out, in[r])
			}
			r++
		case c < utf8.RuneSelf:
			out = append(out, c)
			r++
		default:
			rr, size := utf8.DecodeRune(in[r:])
			out = utf8.AppendRune(out, rr)
			r += size
		}
	}
	return out
}

// hex4 decodes four validated hexadecimal digits.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c >= 'a':
			c -= 'a' - 10
		default:
			c -= 'A' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// number consumes a number token and returns it.
func (s *Scanner) number() []byte {
	c := s.Peek()
	if c != '-' && (c < '0' || c > '9') {
		s.unexpected("number")
		return nil
	}
	data, start, i := s.data, s.pos, s.pos
	if c == '-' {
		i++
	}
	ok := true
	if i < len(data) && data[i] == '0' {
		i++
	} else {
		i, ok = digits(data, i)
	}
	if ok && i < len(data) && data[i] == '.' {
		i, ok = digits(data, i+1)
	}
	if ok && i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		i, ok = digits(data, i)
	}
	s.pos = i
	if !ok {
		s.unexpected("digit")
		return nil
	}
	return data[start:i]
}

// digits skips the digits at i and reports whether there was one.
func digits(data []byte, i int) (int, bool) {
	start := i
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i, i > start
}

// Float reads a number as a float64, refusing what strconv.ParseFloat
// refuses (overflow to ±Inf).
func (s *Scanner) Float() float64 {
	tok := s.number()
	if s.err != nil {
		return 0
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		s.pos -= len(tok)
		s.Errorf("number %s does not fit a float64", tok)
		return 0
	}
	return f
}

// smallDigits is the most digits an integer can have and still fit an
// int whatever its digits: 18 for a 64-bit int, 9 for a 32-bit one.
const smallDigits = strconv.IntSize/64*9 + 9

// Int reads a number as an int, refusing fractions, exponents and
// overflow.
func (s *Scanner) Int() int {
	tok := s.number()
	if s.err != nil {
		return 0
	}
	digits := tok
	if tok[0] == '-' {
		digits = tok[1:]
	}
	if len(digits) <= smallDigits {
		n := 0
		for _, c := range digits {
			if c < '0' || c > '9' {
				n = -1
				break
			}
			n = n*10 + int(c-'0')
		}
		switch {
		case n < 0: // a fraction or an exponent: strconv says why not
		case tok[0] == '-':
			return -n
		default:
			return n
		}
	}
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		s.pos -= len(tok)
		s.Errorf("number %s is not an int", tok)
		return 0
	}
	return int(n)
}

// Uint64 reads a number as a uint64, refusing a sign, fractions,
// exponents and overflow.
func (s *Scanner) Uint64() uint64 {
	tok := s.number()
	if s.err != nil {
		return 0
	}
	n, err := strconv.ParseUint(string(tok), 10, 64)
	if err != nil {
		s.pos -= len(tok)
		s.Errorf("number %s is not a uint64", tok)
		return 0
	}
	return n
}

// Skip validates the next value of any kind and returns its bytes, a
// sub-slice of the input without the whitespace around it. While
// teeing, the value goes to the sink like any other.
func (s *Scanner) Skip() []byte {
	if s.Peek() == 0 {
		s.unexpected("value")
		return nil
	}
	start := s.pos
	// kinds holds the open brackets of the value being skipped; the
	// scanner's own depth counts the ones the caller opened around it.
	var small [32]byte
	kinds := small[:0]
	for s.err == nil {
		// A value is due.
		switch c := s.Peek(); {
		case c == '{' || c == '[':
			if s.depth+len(kinds) >= MaxDepth {
				s.Errorf("exceeded max depth %d", MaxDepth)
				return nil
			}
			kinds = append(kinds, c)
			s.pos++
			if c = s.Peek(); c != kinds[len(kinds)-1]+2 { // not empty
				if kinds[len(kinds)-1] == '{' {
					s.skipKey()
				}
				continue
			}
			s.pos++
			kinds = kinds[:len(kinds)-1]
		case c == '"':
			s.skipString()
		case c == '-' || '0' <= c && c <= '9':
			s.number()
		case c == 't':
			s.literal("true")
		case c == 'f':
			s.literal("false")
		case c == 'n':
			s.literal("null")
		default:
			s.unexpected("value")
		}
		// A value has ended: close brackets until a comma asks for more.
		for s.err == nil && len(kinds) > 0 {
			open := kinds[len(kinds)-1]
			c := s.Peek()
			if c == ',' {
				s.pos++
				if open == '{' {
					s.skipKey()
				}
				break
			}
			if c != open+2 { // '{'+2 == '}', '['+2 == ']'
				s.unexpected("',' or '" + string(open+2) + "'")
				return nil
			}
			s.pos++
			kinds = kinds[:len(kinds)-1]
		}
		if s.err == nil && len(kinds) == 0 {
			return s.data[start:s.pos]
		}
	}
	return nil
}

// SkipTo is Skip that also writes the value to w without the
// whitespace between its tokens (whitespace inside strings is content
// and stays): w receives what json.Compact would produce, so feeding a
// hash gives a key that survives re-indentation of the document. A
// write error is recorded like any other.
func (s *Scanner) SkipTo(w io.Writer) []byte {
	s.Tee(w)
	s.Skip()
	return s.EndTee()
}

// Tee starts writing to w what SkipTo would write of the next value,
// however the caller reads it, until EndTee. Tees do not nest.
func (s *Scanner) Tee(w io.Writer) {
	s.Peek()
	s.sink, s.seg, s.mark = w, s.pos, s.pos
}

// EndTee writes the rest of what Tee began and stops. It returns the
// bytes read since Tee, a sub-slice of the input without the whitespace
// around them, or nil after an error.
func (s *Scanner) EndTee() []byte {
	s.flush()
	s.sink = nil
	if s.err != nil {
		return nil
	}
	return s.data[s.mark:s.pos]
}

// flush writes the bytes consumed since the last whitespace to the
// sink.
func (s *Scanner) flush() {
	if s.sink == nil || s.err != nil || s.pos == s.seg {
		return
	}
	if _, err := s.sink.Write(s.data[s.seg:s.pos]); err != nil {
		s.Errorf("%v", err)
	}
	s.seg = s.pos
}

// skipString validates the string at the current offset.
func (s *Scanner) skipString() {
	if end, _ := s.stringEnd(s.pos + 1); s.err == nil {
		s.pos = end + 1
	}
}

// skipKey validates an object key and the colon after it.
func (s *Scanner) skipKey() {
	if s.Peek() != '"' {
		s.unexpected("object key")
		return
	}
	s.skipString()
	if s.Peek() != ':' {
		s.unexpected("':'")
		return
	}
	s.pos++
}

// End requires that nothing but whitespace follows and returns Err.
func (s *Scanner) End() error {
	s.Peek()
	if s.err == nil && s.pos < len(s.data) {
		s.unexpected("end of input")
	}
	return s.err
}

// AppendFloat appends f as encoding/json writes a float64: the
// shortest decimal that round-trips, exponent form below 1e-6 and from
// 1e21 with a one-digit exponent unpadded. NaN and ±Inf have no JSON
// form and are an error.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("unsupported value: %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// AppendString appends s quoted as encoding/json quotes a string with
// its default HTML escaping: control characters, '"', '\', '<', '>',
// '&', U+2028 and U+2029 escaped, invalid UTF-8 written as the escape \ufffd.
func AppendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
