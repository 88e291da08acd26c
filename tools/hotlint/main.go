// Command hotlint is the repository's hot-path allocation linter. The
// simulator's message/miss path runs millions of times per benchmark run;
// a single heap allocation per event dominates the host-side profile long
// before any simulated cost does. hotlint makes the zero-allocation
// discipline on those paths checkable:
//
//   - a `//hot:path` directive line in a function's doc comment roots an
//     intra-module call-closure walk: the function and everything it
//     (transitively) calls inside the analyzed directories is hot;
//   - a `//hot:cold` directive cuts the walk: the marked function is
//     never entered even when called from hot code (panic formatting,
//     error paths, one-time setup);
//   - within hot code, every allocation-shaped construct is reported:
//     make/new, address-taken or reference-typed composite literals,
//     append growth, non-constant string concatenation and string<->[]byte
//     conversions, boxing a concrete value into an interface parameter,
//     calls through interface values (whose arguments escape), closures,
//     map writes, and pass-by-value copies of 100+ byte values.
//
// Arguments to panic() are skipped — a panicking path is cold by
// definition. A `hotlint:allow(kind,...)` comment suppresses the named
// kinds on its own line and the next; each use should say why the
// construct is safe (pool cold paths, bounded tables).
//
// Findings are compared against a committed baseline (-baseline) keyed
// without line numbers, so the tool fails CI only on NEW findings while
// the recorded debt is paid down incrementally. -write-baseline records
// the current findings.
//
// With -escape, hotlint additionally shells out to `go build
// -gcflags=-m` and cross-checks its static verdicts against the
// compiler's escape analysis: findings the compiler proves non-escaping
// ("does not escape") are suppressed, and compiler-reported escapes
// inside hot functions that the shape rules missed are surfaced as
// findings of kind "escape".
//
// Like detlint, hotlint uses only the standard library: module-internal
// imports are resolved by type-checking their directories recursively,
// everything else through go/importer's source importer. Test files, and
// files the default build context excludes by build constraints, are
// skipped. New findings, or any type error in a checked package, make the
// exit status 1; usage or analysis errors make it 2.
//
// Usage: hotlint [-escape] [-baseline file] [-write-baseline] DIR...
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
)

// bigCopyBytes is the pass-by-value size threshold: copying this many
// bytes per call is treated as allocation-shaped work on a hot path.
const bigCopyBytes = 100

type finding struct {
	pos    token.Position
	fn     string // containing hot function, short form (Recv.Name)
	kind   string
	detail string // short, line-free description used in baseline keys
	msg    string
}

// key is the line-free baseline identity of a finding: moving code around
// must not invalidate the baseline, adding a new construct must.
func (f finding) key(modRoot string) string {
	file := f.pos.Filename
	if rel, err := filepath.Rel(modRoot, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	return file + ":" + f.fn + ":" + f.kind + ":" + f.detail
}

// pkgInfo is one analyzed directory with its type-check results.
type pkgInfo struct {
	dir   string
	path  string
	files []*ast.File
	info  *types.Info
}

// funcInfo is one function declaration found in the analyzed set.
type funcInfo struct {
	pkg      *pkgInfo
	decl     *ast.FuncDecl
	fullName string // types.Func.FullName — stable across re-checks
	short    string // Recv.Name or Name
	hot      bool   // //hot:path directive
	cold     bool   // //hot:cold directive
}

type analyzer struct {
	fset    *token.FileSet
	modRoot string
	modPath string
	cache   map[string]*types.Package
	std     types.Importer
	sizes   types.Sizes
	pkgs    []*pkgInfo
	decls   map[string]*funcInfo // keyed by fullName
	// typeErrs collects every type error of every checked package; any
	// one fails the run.
	typeErrs []error
}

func newAnalyzer(modRoot, modPath string) *analyzer {
	fset := token.NewFileSet()
	sizes := types.SizesFor("gc", runtime.GOARCH)
	if sizes == nil {
		sizes = &types.StdSizes{WordSize: 8, MaxAlign: 8}
	}
	return &analyzer{
		fset:    fset,
		modRoot: modRoot,
		modPath: modPath,
		cache:   map[string]*types.Package{},
		std:     importer.ForCompiler(fset, "source", nil),
		sizes:   sizes,
		decls:   map[string]*funcInfo{},
	}
}

// Import implements types.Importer over the same hybrid resolution scheme
// as detlint: module-internal packages by recursive directory check,
// everything else through the source importer.
func (a *analyzer) Import(path string) (*types.Package, error) {
	if pkg, ok := a.cache[path]; ok {
		return pkg, nil
	}
	if a.modPath != "" && (path == a.modPath || strings.HasPrefix(path, a.modPath+"/")) {
		dir := filepath.Join(a.modRoot, strings.TrimPrefix(strings.TrimPrefix(path, a.modPath), "/"))
		pkg, _, err := a.check(dir, path, nil)
		if err != nil {
			return nil, err
		}
		a.cache[path] = pkg
		return pkg, nil
	}
	pkg, err := a.std.Import(path)
	if err != nil {
		return nil, err
	}
	a.cache[path] = pkg
	return pkg, nil
}

// check parses and type-checks one package directory, skipping tests.
func (a *analyzer) check(dir, path string, info *types.Info) (*types.Package, []*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		fn := e.Name()
		if e.IsDir() || !strings.HasSuffix(fn, ".go") || strings.HasSuffix(fn, "_test.go") {
			continue
		}
		// Lint the default build: a file excluded by its build constraints
		// (e.g. one half of a tag-selected pair) is not part of it.
		if ok, err := build.Default.MatchFile(dir, fn); err != nil {
			return nil, nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(a.fset, filepath.Join(dir, fn), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		if f.Name.Name == "main" && path != "main" {
			path = "main"
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil, fmt.Errorf("no Go files in %s", dir)
	}
	conf := types.Config{
		Importer: a,
		Error:    func(err error) { a.typeErrs = append(a.typeErrs, err) },
	}
	pkg, err := conf.Check(path, a.fset, files, info)
	if err != nil && pkg == nil {
		return nil, nil, err
	}
	return pkg, files, nil
}

// load type-checks one target directory with full info and indexes its
// function declarations (and directives) into the analyzer.
func (a *analyzer) load(dir string) error {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	importPath := dir
	if a.modPath != "" {
		if rel, err := filepath.Rel(a.modRoot, dir); err == nil && !strings.HasPrefix(rel, "..") {
			importPath = a.modPath + "/" + filepath.ToSlash(rel)
		}
	}
	_, files, err := a.check(dir, importPath, info)
	if err != nil {
		return err
	}
	p := &pkgInfo{dir: dir, path: importPath, files: files, info: info}
	a.pkgs = append(a.pkgs, p)
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := &funcInfo{
				pkg:      p,
				decl:     fd,
				fullName: obj.FullName(),
				short:    shortName(fd),
				hot:      hasDirective(fd.Doc, "//hot:path"),
				cold:     hasDirective(fd.Doc, "//hot:cold"),
			}
			a.decls[fi.fullName] = fi
		}
	}
	return nil
}

func shortName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

func hasDirective(doc *ast.CommentGroup, dir string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == dir {
			return true
		}
	}
	return false
}

// hotClosure computes the set of hot functions: every //hot:path root
// plus everything transitively called from one inside the analyzed set,
// stopping at //hot:cold marks. Returns the hot funcInfos in a stable
// order (file, then position).
func (a *analyzer) hotClosure() []*funcInfo {
	names := make([]string, 0, len(a.decls))
	for name := range a.decls {
		names = append(names, name)
	}
	sort.Strings(names)
	var work []*funcInfo
	seen := map[string]bool{}
	for _, name := range names {
		if fi := a.decls[name]; fi.hot {
			work = append(work, fi)
			seen[fi.fullName] = true
		}
	}
	var hot []*funcInfo
	for len(work) > 0 {
		fi := work[len(work)-1]
		work = work[:len(work)-1]
		hot = append(hot, fi)
		for _, callee := range a.callees(fi) {
			c := a.decls[callee]
			if c == nil || c.cold || seen[c.fullName] {
				continue
			}
			seen[c.fullName] = true
			work = append(work, c)
		}
	}
	sort.Slice(hot, func(i, j int) bool {
		pi, pj := a.fset.Position(hot[i].decl.Pos()), a.fset.Position(hot[j].decl.Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Offset < pj.Offset
	})
	return hot
}

// callees returns the full names of statically resolvable calls in fi's
// body. Calls through interface values resolve to interface methods,
// which have no declaration in the analyzed set and terminate the walk
// there (and are flagged separately as iface-call findings).
func (a *analyzer) callees(fi *funcInfo) []string {
	info := fi.pkg.info
	var out []string
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isPanic(info, call) {
			return false // panic arguments are cold by definition
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if f, ok := info.Uses[fun].(*types.Func); ok {
				out = append(out, f.FullName())
			}
		case *ast.SelectorExpr:
			if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
				out = append(out, f.FullName())
			}
		}
		return true
	})
	return out
}

func isPanic(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, builtin := info.Uses[id].(*types.Builtin)
	return builtin || info.Uses[id] == nil
}

var allowRe = regexp.MustCompile(`hotlint:allow\(([^)]*)\)`)

// allowedKinds maps line -> set of suppressed kinds ("*" = all) for one
// file: a hotlint:allow comment covers its own line and the next.
func allowedKinds(fset *token.FileSet, f *ast.File) map[int]map[string]bool {
	out := map[int]map[string]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := allowRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			kinds := map[string]bool{}
			for _, k := range strings.Split(m[1], ",") {
				k = strings.TrimSpace(k)
				if k != "" {
					kinds[k] = true
				}
			}
			if len(kinds) == 0 {
				kinds["*"] = true
			}
			line := fset.Position(c.Pos()).Line
			for _, ln := range []int{line, line + 1} {
				if out[ln] == nil {
					out[ln] = map[string]bool{}
				}
				for k := range kinds {
					out[ln][k] = true
				}
			}
		}
	}
	return out
}

// typeStr renders a type without package qualification, for stable and
// readable finding details.
func typeStr(t types.Type) string {
	if t == nil {
		return "?"
	}
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

// lintFunc reports the allocation-shaped constructs in one hot function.
func (a *analyzer) lintFunc(fi *funcInfo) []finding {
	info := fi.pkg.info
	file := fileOf(fi)
	allow := allowedKinds(a.fset, file)
	var out []finding
	add := func(n ast.Node, kind, detail, format string, args ...any) {
		pos := a.fset.Position(n.Pos())
		if ak := allow[pos.Line]; ak != nil && (ak[kind] || ak["*"]) {
			return
		}
		out = append(out, finding{
			pos: pos, fn: fi.short, kind: kind, detail: detail,
			msg: fmt.Sprintf(format, args...),
		})
	}

	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isPanic(info, n) {
				return false
			}
			a.lintCall(fi, n, add)
		case *ast.CompositeLit:
			// Reference-typed literals allocate their backing store
			// unconditionally; struct/array literals only when their
			// address is taken (handled at the UnaryExpr below).
			tv, ok := info.Types[n]
			if !ok || tv.Type == nil {
				break
			}
			switch tv.Type.Underlying().(type) {
			case *types.Slice:
				add(n, "composite", typeStr(tv.Type), "slice literal %s allocates its backing array", typeStr(tv.Type))
			case *types.Map:
				add(n, "composite", typeStr(tv.Type), "map literal %s allocates", typeStr(tv.Type))
			}
		case *ast.UnaryExpr:
			if n.Op != token.AND {
				break
			}
			if cl, ok := n.X.(*ast.CompositeLit); ok {
				tv := info.Types[cl]
				add(n, "composite", typeStr(tv.Type), "&%s{...} may escape to the heap — verify with -escape, pool it, or hoist it", typeStr(tv.Type))
			}
		case *ast.FuncLit:
			add(n, "closure", "func-literal", "closure on a hot path: the function value and its captures may allocate")
		case *ast.BinaryExpr:
			if n.Op != token.ADD {
				break
			}
			tv, ok := info.Types[n]
			if !ok || tv.Type == nil || tv.Value != nil { // constant-folded concats are free
				break
			}
			if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				add(n, "string-concat", "concat", "string concatenation allocates — precompute the string or index a name table")
			}
		case *ast.AssignStmt:
			a.lintAssign(info, n, add)
		case *ast.IncDecStmt:
			if ix, ok := n.X.(*ast.IndexExpr); ok && isMapIndex(info, ix) {
				add(n, "map-write", "index", "map write on a hot path: bucket growth allocates — preallocate or use a slice-backed table")
			}
		}
		return true
	})
	return out
}

func fileOf(fi *funcInfo) *ast.File {
	for _, f := range fi.pkg.files {
		if f.Pos() <= fi.decl.Pos() && fi.decl.Pos() <= f.End() {
			return f
		}
	}
	return fi.pkg.files[0]
}

func isMapIndex(info *types.Info, ix *ast.IndexExpr) bool {
	tv, ok := info.Types[ix.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

func (a *analyzer) lintAssign(info *types.Info, n *ast.AssignStmt, add func(ast.Node, string, string, string, ...any)) {
	for _, lhs := range n.Lhs {
		if ix, ok := lhs.(*ast.IndexExpr); ok && isMapIndex(info, ix) {
			add(n, "map-write", "index", "map write on a hot path: bucket growth allocates — preallocate or use a slice-backed table")
		}
	}
	if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 {
		if tv, ok := info.Types[n.Lhs[0]]; ok && tv.Type != nil {
			if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				add(n, "string-concat", "concat", "string concatenation allocates — precompute the string or index a name table")
			}
		}
	}
}

// lintCall reports the allocation-shaped aspects of one call: allocating
// builtins, string conversions, interface boxing, interface dispatch, and
// large pass-by-value copies.
func (a *analyzer) lintCall(fi *funcInfo, call *ast.CallExpr, add func(ast.Node, string, string, string, ...any)) {
	info := fi.pkg.info

	// Builtins.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, builtin := info.Uses[id].(*types.Builtin); builtin {
			switch id.Name {
			case "make":
				tv := info.Types[call]
				add(call, "make", typeStr(tv.Type), "make(%s) on a hot path — take from a pool or preallocate", typeStr(tv.Type))
			case "new":
				tv := info.Types[call]
				add(call, "new", typeStr(tv.Type), "new(%s) on a hot path — take from a pool or preallocate", typeStr(tv.Type))
			case "append":
				tv := info.Types[call]
				add(call, "append-growth", typeStr(tv.Type), "append may grow %s on a hot path — preallocate capacity or reuse via [:0]", typeStr(tv.Type))
			}
			return
		}
	}

	// Conversions: only string<->[]byte/[]rune copy and allocate.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type
		src := info.Types[call.Args[0]].Type
		if src != nil && stringBytesConv(src, dst) {
			add(call, "string-conv", typeStr(dst), "%s(...) conversion copies and allocates on a hot path", typeStr(dst))
		}
		return
	}

	// Interface method dispatch: the callee is unknown to the compiler,
	// so pointer arguments (including the receiver) escape.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
			if types.IsInterface(s.Recv().Underlying()) {
				add(call, "iface-call", sel.Sel.Name, "call through interface method %s: arguments escape (unknown callee) — devirtualize with a type switch on the known backends", sel.Sel.Name)
			}
			// Large value receivers are copied per call.
			if sig, ok := s.Obj().Type().(*types.Signature); ok && sig.Recv() != nil {
				rt := sig.Recv().Type()
				if _, ptr := rt.Underlying().(*types.Pointer); !ptr && !types.IsInterface(rt.Underlying()) {
					if sz := a.sizes.Sizeof(rt); sz >= bigCopyBytes {
						add(call, "big-copy", typeStr(rt), "method call copies %d-byte receiver %s — use a pointer receiver", sz, typeStr(rt))
					}
				}
			}
		}
	}

	// Interface boxing and big copies at the parameters.
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				if i == params.Len()-1 {
					pt = params.At(params.Len() - 1).Type()
				}
			} else {
				pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		at := info.Types[arg].Type
		if at == nil {
			continue
		}
		if types.IsInterface(pt.Underlying()) && !types.IsInterface(at.Underlying()) {
			if b, ok := at.Underlying().(*types.Basic); !ok || b.Kind() != types.UntypedNil {
				add(arg, "iface-arg", typeStr(at), "%s boxed into interface parameter: the value escapes and may allocate", typeStr(at))
			}
			continue
		}
		switch pt.Underlying().(type) {
		case *types.Pointer, *types.Interface, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Basic:
			continue
		}
		if sz := a.sizes.Sizeof(pt); sz >= bigCopyBytes {
			add(arg, "big-copy", typeStr(pt), "call copies %d-byte %s by value — pass a pointer", sz, typeStr(pt))
		}
	}
}

func stringBytesConv(src, dst types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteish := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		e, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune || e.Kind() == types.Uint8 || e.Kind() == types.Int32)
	}
	return (isStr(src) && isByteish(dst)) || (isByteish(src) && isStr(dst))
}

// ---- escape-analysis cross-check (-escape) ----

// escapeVerdict is one compiler escape diagnostic at a position.
type escapeVerdict struct {
	file string // absolute path
	line int
	heap bool // escapes/moved to heap vs does not escape
	msg  string
}

var escLineRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// runEscapeAnalysis builds the target directories with -gcflags=-m and
// parses the escape diagnostics.
func runEscapeAnalysis(modRoot string, dirs []string) ([]escapeVerdict, error) {
	args := []string{"build", "-gcflags=-m=1"}
	for _, d := range dirs {
		rel, err := filepath.Rel(modRoot, d)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("escape analysis target %s is outside module root %s", d, modRoot)
		}
		args = append(args, "./"+filepath.ToSlash(rel))
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = modRoot
	out, err := cmd.CombinedOutput()
	if err != nil {
		// -m output goes to stderr even on success; a real build failure
		// has no usable diagnostics.
		if _, ok := err.(*exec.ExitError); !ok {
			return nil, err
		}
		return nil, fmt.Errorf("go build -gcflags=-m failed: %v\n%s", err, out)
	}
	return parseEscapeOutput(modRoot, string(out)), nil
}

func parseEscapeOutput(modRoot, out string) []escapeVerdict {
	var vs []escapeVerdict
	for _, line := range strings.Split(out, "\n") {
		m := escLineRe.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		msg := m[4]
		var heap bool
		switch {
		case strings.Contains(msg, "escapes to heap"), strings.Contains(msg, "moved to heap"):
			heap = true
		case strings.Contains(msg, "does not escape"):
			heap = false
		default:
			continue // inlining and other -m chatter
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(modRoot, file)
		}
		ln := 0
		fmt.Sscanf(m[2], "%d", &ln)
		vs = append(vs, escapeVerdict{file: file, line: ln, heap: heap, msg: msg})
	}
	return vs
}

// escapeCheckable marks the finding kinds whose allocation verdict the
// compiler's escape analysis can confirm or refute at the same line.
var escapeCheckable = map[string]bool{
	"composite": true, "new": true, "closure": true, "make": true,
}

// crossCheck applies the compiler verdicts to the static findings:
// stack-proven findings are dropped, and heap escapes inside hot
// functions with no static finding on their line become "escape"
// findings. Returns the surviving findings and the number suppressed.
func (a *analyzer) crossCheck(findings []finding, hot []*funcInfo, verdicts []escapeVerdict) ([]finding, int) {
	type lineKey struct {
		file string
		line int
	}
	heapAt := map[lineKey][]string{}
	stackAt := map[lineKey]bool{}
	for _, v := range verdicts {
		k := lineKey{v.file, v.line}
		if v.heap {
			heapAt[k] = append(heapAt[k], v.msg)
		} else {
			stackAt[k] = true
		}
	}

	flagged := map[lineKey]bool{}
	for _, f := range findings {
		flagged[lineKey{f.pos.Filename, f.pos.Line}] = true
	}

	var out []finding
	suppressed := 0
	for _, f := range findings {
		k := lineKey{f.pos.Filename, f.pos.Line}
		if escapeCheckable[f.kind] && len(heapAt[k]) == 0 && stackAt[k] {
			suppressed++ // compiler proves it stays on the stack
			continue
		}
		out = append(out, f)
	}

	// Reverse direction: compiler-reported escapes in hot code that the
	// shape rules missed. Allow comments apply here too. Iterate the heap
	// verdicts in sorted key order so findings are deterministic.
	heapKeys := make([]lineKey, 0, len(heapAt))
	for k := range heapAt {
		heapKeys = append(heapKeys, k)
	}
	sort.Slice(heapKeys, func(i, j int) bool {
		if heapKeys[i].file != heapKeys[j].file {
			return heapKeys[i].file < heapKeys[j].file
		}
		return heapKeys[i].line < heapKeys[j].line
	})
	for _, fi := range hot {
		file := fileOf(fi)
		allow := allowedKinds(a.fset, file)
		start := a.fset.Position(fi.decl.Pos())
		end := a.fset.Position(fi.decl.End())
		for _, k := range heapKeys {
			if k.file != start.Filename || k.line < start.Line || k.line > end.Line {
				continue
			}
			if flagged[k] {
				continue
			}
			if ak := allow[k.line]; ak != nil && (ak["escape"] || ak["*"]) {
				continue
			}
			msgs := heapAt[k]
			sort.Strings(msgs)
			out = append(out, finding{
				pos:    token.Position{Filename: k.file, Line: k.line},
				fn:     fi.short,
				kind:   "escape",
				detail: msgs[0],
				msg:    fmt.Sprintf("compiler: %s (escape the shape rules missed)", strings.Join(msgs, "; ")),
			})
		}
	}
	sortFindings(out)
	return out, suppressed
}

func sortFindings(fs []finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i].pos, fs[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return fs[i].kind < fs[j].kind
	})
}

// ---- baseline ----

type baseline struct {
	Version  int            `json:"version"`
	Findings map[string]int `json:"findings"`
}

func loadBaseline(path string) (*baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return &baseline{Version: 1, Findings: map[string]int{}}, nil
		}
		return nil, err
	}
	var b baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, err
	}
	if b.Findings == nil {
		b.Findings = map[string]int{}
	}
	return &b, nil
}

func writeBaseline(path string, counts map[string]int) error {
	b := baseline{Version: 1, Findings: counts}
	data, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// newAgainstBaseline returns the findings whose baseline key count
// exceeds the recorded count (all instances of an exceeded key, so the
// report is actionable).
func newAgainstBaseline(findings []finding, base *baseline, modRoot string) []finding {
	counts := map[string]int{}
	for _, f := range findings {
		counts[f.key(modRoot)]++
	}
	var out []finding
	for _, f := range findings {
		k := f.key(modRoot)
		if counts[k] > base.Findings[k] {
			out = append(out, f)
		}
	}
	return out
}

// findModule walks up from dir to the enclosing go.mod.
func findModule(dir string) (root, path string) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", ""
	}
	for {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if strings.HasPrefix(line, "module ") {
					return d, strings.TrimSpace(strings.TrimPrefix(line, "module "))
				}
			}
			return d, ""
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", ""
		}
		d = parent
	}
}

// run executes the full analysis; separated from main for tests.
func run(dirs []string, escape bool, baselinePath string, writeBase bool, stdout io.Writer) int {
	abs := make([]string, len(dirs))
	for i, d := range dirs {
		a, err := filepath.Abs(d)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hotlint: %v\n", err)
			return 2
		}
		abs[i] = a
	}
	root, mod := findModule(abs[0])
	a := newAnalyzer(root, mod)
	for _, d := range abs {
		if err := a.load(d); err != nil {
			fmt.Fprintf(os.Stderr, "hotlint: %s: %v\n", d, err)
			return 2
		}
	}
	if len(a.typeErrs) > 0 {
		// Linting on partial type information would silently miss findings.
		for _, err := range a.typeErrs {
			fmt.Fprintf(os.Stderr, "hotlint: type error: %v\n", err)
		}
		return 1
	}
	hot := a.hotClosure()
	var findings []finding
	for _, fi := range hot {
		findings = append(findings, a.lintFunc(fi)...)
	}
	sortFindings(findings)

	if escape {
		verdicts, err := runEscapeAnalysis(root, abs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hotlint: %v\n", err)
			return 2
		}
		var suppressed int
		findings, suppressed = a.crossCheck(findings, hot, verdicts)
		fmt.Fprintf(stdout, "hotlint: escape cross-check: %d finding(s) compiler-proven stack-only and dropped\n", suppressed)
	}

	counts := map[string]int{}
	for _, f := range findings {
		counts[f.key(root)]++
	}
	if writeBase {
		if err := writeBaseline(baselinePath, counts); err != nil {
			fmt.Fprintf(os.Stderr, "hotlint: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "hotlint: wrote %d finding key(s) to %s\n", len(counts), baselinePath)
		return 0
	}

	report := findings
	if baselinePath != "" {
		base, err := loadBaseline(baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hotlint: %v\n", err)
			return 2
		}
		report = newAgainstBaseline(findings, base, root)
		if n := len(findings) - len(report); n > 0 {
			fmt.Fprintf(stdout, "hotlint: %d finding(s) matched the baseline %s\n", n, baselinePath)
		}
	}
	for _, f := range report {
		fmt.Fprintf(stdout, "%s: %s: [%s] %s: %s\n", f.pos, f.fn, f.kind, f.msg, "key="+f.key(root))
	}
	fmt.Fprintf(stdout, "hotlint: %d hot function(s), %d finding(s), %d new\n", len(hot), len(findings), len(report))
	if len(report) > 0 {
		return 1
	}
	return 0
}

func main() {
	escape := flag.Bool("escape", false, "cross-check findings against the compiler's escape analysis (go build -gcflags=-m)")
	baselinePath := flag.String("baseline", "", "baseline JSON file; only findings not in the baseline fail")
	writeBase := flag.Bool("write-baseline", false, "record current findings into -baseline and exit 0")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: hotlint [-escape] [-baseline file] [-write-baseline] DIR...")
		os.Exit(2)
	}
	if *writeBase && *baselinePath == "" {
		fmt.Fprintln(os.Stderr, "hotlint: -write-baseline requires -baseline")
		os.Exit(2)
	}
	os.Exit(run(flag.Args(), *escape, *baselinePath, *writeBase, os.Stdout))
}
