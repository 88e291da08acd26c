package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lintFixture writes the files into a fresh package directory and lints it.
func lintFixture(t *testing.T, files map[string]string) []finding {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l := newLinter("", "")
	fs, err := l.lintDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func kinds(fs []finding) map[string]int {
	m := map[string]int{}
	for _, f := range fs {
		m[f.kind]++
	}
	return m
}

func TestDetlintFlagsNondeterminism(t *testing.T) {
	fs := lintFixture(t, map[string]string{"bad.go": `package fixture

import (
	"fmt"
	"math/rand"
	"strings"
	"time"
)

func clock() int64 { return time.Now().UnixNano() }

func draw() int { return rand.Intn(6) }

func describe(m map[int]string) string {
	out := ""
	for k, v := range m {
		out += fmt.Sprintf("%d=%s ", k, v)
	}
	return out
}

func write(m map[string]int) string {
	var b strings.Builder
	for k := range m {
		fmt.Fprintf(&b, "%s ", k)
	}
	return b.String()
}

func collect(m map[int]int) []int {
	var vs []int
	for _, v := range m {
		vs = append(vs, v)
	}
	return vs
}
`})
	got := kinds(fs)
	want := map[string]int{
		"wall-clock":             1,
		"global-rand":            1,
		"map-range-string":       1,
		"map-range-write":        1,
		"map-range-append-value": 1,
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("kind %q: %d findings, want %d\nall: %+v", k, got[k], n, fs)
		}
	}
	if len(fs) != 5 {
		t.Errorf("%d findings total, want 5: %+v", len(fs), fs)
	}
}

func TestDetlintAllowsSanctionedPatterns(t *testing.T) {
	fs := lintFixture(t, map[string]string{"good.go": `package fixture

import (
	"fmt"
	"math/rand"
	"sort"
)

// The sanctioned map-iteration pattern: collect keys, sort, then range the
// slice.
func describe(m map[int]string) string {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := ""
	for _, k := range keys {
		out += fmt.Sprintf("%d=%s ", k, m[k])
	}
	return out
}

// Explicitly seeded RNGs are fine.
func draw(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(6)
}

// Commutative accumulation over a map is order-insensitive.
func sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}
`})
	if len(fs) != 0 {
		t.Fatalf("clean fixture produced findings: %+v", fs)
	}
}

func TestDetlintAllowDirective(t *testing.T) {
	fs := lintFixture(t, map[string]string{"allow.go": `package fixture

import "sort"

type pair struct{ k, v int }

func collect(m map[int]int) []pair {
	var ps []pair
	for k, v := range m {
		// detlint:allow — sorted below by the total key k.
		ps = append(ps, pair{k, v})
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].k < ps[j].k })
	return ps
}
`})
	if len(fs) != 0 {
		t.Fatalf("allow directive ignored: %+v", fs)
	}
}

func TestDetlintSkipsTestFiles(t *testing.T) {
	fs := lintFixture(t, map[string]string{
		"code.go": `package fixture

func ok() {}
`,
		"code_test.go": `package fixture

import "time"

var when = time.Now()
`,
	})
	if len(fs) != 0 {
		t.Fatalf("test file was linted: %+v", fs)
	}
}

// TestDetlintHonorsBuildConstraints lints a tag-selected pair of files:
// only the default build's half is checked, so the pair's duplicate
// declarations are no type error and the excluded half is not linted.
func TestDetlintHonorsBuildConstraints(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"on.go": `//go:build fixturetag

package fixture

import "time"

var when = time.Now()

const enabled = true
`,
		"off.go": `//go:build !fixturetag

package fixture

const enabled = false
`,
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	if code := run([]string{dir}, &out); code != 0 {
		t.Fatalf("got exit %d, want 0\n%s", code, out.String())
	}
}

// TestDetlintRepoPackages is the in-repo acceptance gate: the simulator's
// deterministic packages must stay clean.
func TestDetlintRepoPackages(t *testing.T) {
	root, mod := findModule(".")
	if root == "" || mod == "" {
		t.Fatal("module root not found")
	}
	l := newLinter(root, mod)
	for _, rel := range []string{"internal/core", "internal/sim", "internal/modelcheck"} {
		fs, err := l.lintDir(filepath.Join(root, rel))
		if err != nil {
			t.Fatalf("%s: %v", rel, err)
		}
		for _, f := range fs {
			t.Errorf("%s: %s: %s: %s", rel, f.pos, f.kind, f.msg)
		}
	}
}

// TestTypeErrorsAreFatal lints a package that does not type-check: the
// run must fail with status 1 instead of linting on partial type info.
func TestTypeErrorsAreFatal(t *testing.T) {
	dir := t.TempDir()
	src := "package fixture\n\nfunc f() int { return undefinedName }\n"
	if err := os.WriteFile(filepath.Join(dir, "broken.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if code := run([]string{dir}, &out); code != 1 {
		t.Fatalf("run on a package with a type error: got exit %d, want 1\n%s", code, out.String())
	}
}
