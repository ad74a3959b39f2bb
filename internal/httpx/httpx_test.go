package httpx

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

type payload struct {
	Name string `json:"name"`
	N    int    `json:"n"`
}

func TestWriteReadRoundTrip(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var in payload
		if !ReadJSON(w, r, &in) {
			return
		}
		in.N++
		WriteJSON(w, in)
	}))
	defer srv.Close()

	var out payload
	err := PostJSON(context.Background(), http.DefaultClient, srv.URL, payload{Name: "x", N: 1}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != "x" || out.N != 2 {
		t.Fatalf("round trip: %+v", out)
	}
}

func TestWriteJSONFraming(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, payload{Name: "a", N: 7})
	// The single response-encoding path: compact JSON plus exactly one
	// trailing newline — the framing the serve byte-identity suite
	// builds its expectations on.
	if got, want := rec.Body.String(), `{"name":"a","n":7}`+"\n"; got != want {
		t.Fatalf("framing: %q, want %q", got, want)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
}

func TestReadJSONRejectsMalformed(t *testing.T) {
	readJSON := func(w http.ResponseWriter, r *http.Request) {
		var in payload
		if ReadJSON(w, r, &in) {
			WriteJSON(w, in)
		}
	}
	readBody := func(w http.ResponseWriter, r *http.Request) {
		if body, ok := ReadBody(w, r); ok {
			w.Write(body)
		}
	}
	for _, tc := range []struct {
		name    string
		handler http.HandlerFunc
		body    string
		// declared, when not 0, is sent as Content-Length in place of
		// the body's real length.
		declared int64
		status   int
		want     string
	}{
		{"ReadJSON truncated document", readJSON, `{"name": `, 0, http.StatusBadRequest, ""},
		{"ReadJSON declared length above the limit", readJSON, `{}`, MaxBodyBytes + 1, http.StatusRequestEntityTooLarge, ""},
		{"ReadBody declared length above the limit", readBody, `{}`, MaxBodyBytes + 1, http.StatusRequestEntityTooLarge, ""},
		{"ReadBody declared length at the limit, short body", readBody, `{"n": 1}`, MaxBodyBytes, http.StatusOK, `{"n": 1}`},
		{"ReadBody undeclared length", readBody, strings.Repeat("x", 3*maxPrealloc/2), -1, http.StatusOK, strings.Repeat("x", 3*maxPrealloc/2)},
		{"ReadBody empty", readBody, ``, 0, http.StatusOK, ``},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Straight into the handler: net/http's client would not send,
			// and its server would not pass on, a length the body belies.
			r := httptest.NewRequest("POST", "/", &countingReader{r: strings.NewReader(tc.body)})
			if tc.declared != 0 {
				r.ContentLength = tc.declared
			}
			rec := httptest.NewRecorder()
			tc.handler(rec, r)
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.status, rec.Body)
			}
			if tc.status == http.StatusOK && rec.Body.String() != tc.want {
				t.Fatalf("body of %d bytes came back as %d bytes", len(tc.want), rec.Body.Len())
			}
			if read := r.Body.(*countingReader).n; tc.status == http.StatusRequestEntityTooLarge && read != 0 {
				t.Fatalf("%d bytes were read before the refusal", read)
			}
		})
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

func (c *countingReader) Close() error { return nil }

// TestReadBodyPreallocatesNoMoreThanItsCap pins the reason the buffer is
// not simply sized from Content-Length: a header claiming the full 64
// MiB over an 8-byte body must cost about 1 MiB, not 64.
func TestReadBodyPreallocatesNoMoreThanItsCap(t *testing.T) {
	r := httptest.NewRequest("POST", "/", strings.NewReader(`{"n": 1}`))
	r.ContentLength = MaxBodyBytes
	body, ok := ReadBody(httptest.NewRecorder(), r)
	if !ok || string(body) != `{"n": 1}` {
		t.Fatalf("ReadBody = %q, %v", body, ok)
	}
	if cap(body) > 2*maxPrealloc {
		t.Fatalf("a %d-byte claim over an 8-byte body allocated %d bytes", int64(MaxBodyBytes), cap(body))
	}
}

func TestDoJSONStatusError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "teapot refuses", http.StatusTeapot)
	}))
	defer srv.Close()

	var out payload
	err := GetJSON(context.Background(), http.DefaultClient, srv.URL+"/brew", &out)
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("error %v (%T), want *StatusError", err, err)
	}
	if se.Code != http.StatusTeapot || se.Body != "teapot refuses" || se.Path != "/brew" || se.Method != "GET" {
		t.Fatalf("status error fields: %+v", se)
	}
	if msg := se.Error(); !strings.Contains(msg, "teapot refuses") || !strings.Contains(msg, "/brew") {
		t.Fatalf("error text drops context: %q", msg)
	}
	if IsConnErr(err) {
		t.Fatal("a non-200 answer is not a connection error")
	}
}

func TestIsConnErr(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	srv.Close() // gone: dials now fail

	var out payload
	err := GetJSON(context.Background(), http.DefaultClient, srv.URL, &out)
	if err == nil {
		t.Fatal("GET against a closed server succeeded")
	}
	if !IsConnErr(err) {
		t.Fatalf("refused connection not recognized: %v", err)
	}
	if IsConnErr(io.EOF) != true {
		t.Fatal("io.EOF (server died mid-response) must count as a connection error")
	}
	if IsConnErr(fmt.Errorf("some app error")) {
		t.Fatal("plain errors must not count as connection errors")
	}
	if IsConnErr(nil) {
		t.Fatal("nil is not a connection error")
	}
}
