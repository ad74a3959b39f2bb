// Package httpx holds the small JSON-over-HTTP helpers shared by the
// repo's network-facing layers: the sweep coordinator (internal/coord)
// and the scheduling daemon (internal/serve). Both speak the same plain
// dialect — JSON request bodies, JSON responses, errors as non-200
// statuses with a plain-text body — and centralizing the encode/decode
// plumbing keeps the two protocols byte-compatible in how they frame
// payloads and bound request sizes.
//
// The key invariant: a handler answers exactly one of (200 + JSON body)
// or (non-200 + plain-text error), and every body — request or response
// — is capped at MaxBodyBytes so an untrusted peer cannot balloon
// server memory.
package httpx

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
)

// MaxBodyBytes caps request and response bodies (64 MiB — generous for
// instance JSON at the scales the repo targets, small enough that a
// hostile peer cannot exhaust memory with one request).
const MaxBodyBytes = 64 << 20

// WriteJSON encodes v as the JSON response body. It is the single
// response-encoding path of every handler, so response bytes are
// deterministic: json.Marshal framing plus the encoder's trailing
// newline.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// ReadBody reads the whole request body, capped at MaxBodyBytes. A
// declared Content-Length above the cap is refused with 413 before a
// byte is read; any other failure answers 400. The buffer is sized from
// Content-Length so a body arrives in one allocation, but by at most
// maxPrealloc up front: a header is a claim, and a lying one must not
// make the daemon allocate what it has not received.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	return ReadBodyInto(nil, w, r)
}

// ReadBodyInto is ReadBody reading into buf's storage, grown as needed,
// so that a handler can recycle one buffer across requests. The caller
// must not recycle it while anything still refers to the body.
func ReadBodyInto(buf []byte, w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.ContentLength > MaxBodyBytes {
		http.Error(w, fmt.Sprintf("request body of %d bytes exceeds the %d-byte limit", r.ContentLength, MaxBodyBytes),
			http.StatusRequestEntityTooLarge)
		return nil, false
	}
	// bytes.MinRead of spare room lets the read that finds EOF fit
	// without growing.
	b := bytes.NewBuffer(buf[:0])
	b.Grow(int(min(max(r.ContentLength, 0), maxPrealloc)) + bytes.MinRead)
	if _, err := b.ReadFrom(http.MaxBytesReader(w, r.Body, MaxBodyBytes)); err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return nil, false
	}
	return b.Bytes(), true
}

// maxPrealloc bounds what ReadBody allocates on the word of a
// Content-Length header.
const maxPrealloc = 1 << 20

// ReadJSON decodes the request body into v, answering 400 with the
// decode error and returning false on malformed input. The body is read
// by ReadBody.
func ReadJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body, ok := ReadBody(w, r)
	if !ok {
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

// GetJSON issues a GET and decodes the JSON response into out.
func GetJSON(ctx context.Context, client *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	return doJSON(client, req, out)
}

// PostJSON issues a POST with in as the JSON body and decodes the JSON
// response into out.
func PostJSON(ctx context.Context, client *http.Client, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return doJSON(client, req, out)
}

// doJSON executes req and decodes the JSON response into out. A non-200
// status is an answer, not an outage: it becomes an error carrying the
// status and the server's plain-text body.
func doJSON(client *http.Client, req *http.Request, out any) error {
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, MaxBodyBytes))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return &StatusError{Code: resp.StatusCode, Status: resp.Status,
			Method: req.Method, Path: req.URL.Path, Body: strings.TrimSpace(string(data))}
	}
	return json.Unmarshal(data, out)
}

// StatusError is a non-200 answer: the peer was reachable and said no.
// Callers branch on Code (the daemon's thin clients distinguish 400
// from 503) while the message keeps the server's own words.
type StatusError struct {
	Code   int
	Status string
	Method string
	Path   string
	Body   string
}

// Error implements error.
func (e *StatusError) Error() string {
	return fmt.Sprintf("%s %s: %s: %s", e.Method, e.Path, e.Status, e.Body)
}

// IsConnErr recognizes connection-level failures a vanished peer
// produces (refused, reset, dial errors) that do not implement
// net.Error, plus those that do. Retry loops use it to tell "the
// process is gone" from "the process answered an error".
func IsConnErr(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	if errors.Is(err, io.EOF) {
		return true
	}
	var oe *net.OpError
	if errors.As(err, &oe) {
		return true
	}
	var se *os.SyscallError
	return errors.As(err, &se)
}
