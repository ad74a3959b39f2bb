package main

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// transcript records command lines and what they print, with the paths
// and URLs that differ between runs replaced by placeholders, for
// comparison with a golden file.
type transcript struct {
	t    *testing.T
	buf  strings.Builder
	mask *strings.Replacer
}

// run runs fn(args) with stdout captured, records "$ prog args" and the
// output, and returns the masked output. A failing command fails the
// test.
func (tr *transcript) run(prog string, fn func([]string) error, args ...string) string {
	tr.t.Helper()
	f, err := os.CreateTemp(tr.t.TempDir(), "stdout")
	if err != nil {
		tr.t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	err = fn(args)
	os.Stdout = stdout
	line := tr.mask.Replace(strings.Join(append([]string{"$", prog}, args...), " "))
	if err != nil {
		tr.t.Fatalf("%s: %v", line, err)
	}
	raw, err := os.ReadFile(f.Name())
	if err != nil {
		tr.t.Fatal(err)
	}
	out := tr.mask.Replace(string(raw))
	fmt.Fprintf(&tr.buf, "%s\n%s", line, out)
	return out
}

// check reports the first line where the transcript and golden differ.
func (tr *transcript) check(golden string) {
	tr.t.Helper()
	raw, err := os.ReadFile(golden)
	if err != nil {
		tr.t.Fatal(err)
	}
	got, want := strings.Split(tr.buf.String(), "\n"), strings.Split(string(raw), "\n")
	at := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return "<end>"
	}
	for i := range max(len(got), len(want)) {
		if at(got, i) != at(want, i) {
			tr.t.Fatalf("%s:%d differs\n got: %q\nwant: %q", golden, i+1, at(got, i), at(want, i))
		}
	}
}
