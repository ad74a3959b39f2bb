package saga

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestMakefilePatternsMatchTests reads the Makefile and holds every
// `go test` line's -run, -bench and -fuzz pattern to at least one
// function of the matching kind in the _test.go files of the package
// that line names. `go test -run X` passes with "no tests to run" when X
// matches nothing, so a renamed gate test would otherwise drop out of
// `make verify` silently. Each alternative of an `A|B` pattern must
// match on its own; `^$` (run nothing) is skipped.
func TestMakefilePatternsMatchTests(t *testing.T) {
	data, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]string{"-run": "Test", "-bench": "Benchmark", "-fuzz": "Fuzz"}
	flagRE := regexp.MustCompile(`(-run|-bench|-fuzz) (?:'([^']*)'|(\S+))`)
	pkgRE := regexp.MustCompile(`\s(\.(?:/\S*)?)(?:\s|$)`)
	funcRE := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	checked := 0
	for n, line := range strings.Split(strings.ReplaceAll(string(data), "$$", "$"), "\n") {
		flags := flagRE.FindAllStringSubmatch(line, -1)
		if !strings.Contains(line, "$(GO) test ") || flags == nil {
			continue
		}
		pkgs := pkgRE.FindAllStringSubmatch(line, -1)
		if len(pkgs) != 1 || strings.HasSuffix(pkgs[0][1], "...") {
			t.Fatalf("Makefile:%d: a line with -run, -bench or -fuzz must name one package directory: %q", n+1, line)
		}
		pkg := pkgs[0][1]
		var names []string
		files, _ := filepath.Glob(filepath.Join(pkg, "*_test.go"))
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range funcRE.FindAllSubmatch(src, -1) {
				names = append(names, string(m[1]))
			}
		}
		for _, f := range flags {
			flag, pattern := f[1], f[2]+f[3]
			if pattern == "^$" {
				continue
			}
			for _, alt := range strings.Split(pattern, "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Fatalf("Makefile:%d: %s %q: %v", n+1, flag, pattern, err)
				}
				if !slices.ContainsFunc(names, func(name string) bool {
					return strings.HasPrefix(name, kinds[flag]) && re.MatchString(name)
				}) {
					t.Errorf("Makefile:%d: %s %q: no func %s… in %s matches %q", n+1, flag, pattern, kinds[flag], pkg, alt)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no -run, -bench or -fuzz pattern found in the Makefile")
	}
	t.Logf("%d patterns checked", checked)
}
