//go:build reach

// The reachability gate: every function declared in a non-test file of
// this module is either linked into some binary the repository ships or
// named, with a reason, in testdata/reach_allow.txt. Run it with
//
//	go test -tags reach -run '^TestReach' .
//
// (`make reach`). The roots are every main package under cmd/ and
// examples/ plus the benchmark module, found with `go list`. Each is
// built with inlining off, so that a function the linker keeps appears
// under its own symbol, and the gate reads the symbols back with
// `go tool nm`: the linker's dead-code elimination already computes
// reachability.
package capuchin

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// reachAllowFile lists the functions no binary links on purpose: one
// symbol and its reason per line; blank lines and #-comments are skipped.
const reachAllowFile = "testdata/reach_allow.txt"

func TestReach(t *testing.T) {
	declared := reachDeclared(t)
	linked := reachLinked(t)
	allow := reachAllow(t)

	var fails []string
	for _, name := range sortedKeys(declared) {
		d := declared[name]
		isLinked := false
		for _, sym := range d.syms {
			isLinked = isLinked || linked[sym]
		}
		_, allowed := allow[name]
		switch {
		case !isLinked && !allowed:
			fails = append(fails, "unlinked: "+name+" ("+d.pos+"); delete it, move it into a _test.go file, or allowlist it with a reason")
		case isLinked && allowed:
			fails = append(fails, "allowlisted but linked: "+name+"; drop its "+reachAllowFile+" entry")
		}
	}
	for _, name := range sortedKeys(allow) {
		if _, ok := declared[name]; !ok {
			fails = append(fails, "allowlisted but not declared: "+name+"; drop its "+reachAllowFile+" entry")
		}
	}
	t.Logf("%d functions declared, %d allowlisted", len(declared), len(allow))
	for _, f := range fails {
		t.Error(f)
	}
}

// decl is one declared function: where it is, and the linker symbols
// that mean it is linked. A value-receiver method T.M counts as linked
// through the (*T).M wrapper the compiler generates for it too.
type decl struct {
	pos  string
	syms []string
}

// reachDeclared maps the linker name of every function and method
// declared in a non-test file of the module to its declaration.
func reachDeclared(t *testing.T) map[string]decl {
	out := goCmd(t, ".", "list", "-f", "{{.ImportPath}}\t{{.Dir}}\t{{join .GoFiles \" \"}}", "./...")
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	decls := make(map[string]decl)
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		parts := strings.SplitN(line, "\t", 3)
		if len(parts) != 3 || parts[2] == "" {
			continue
		}
		pkg, dir := parts[0], parts[1]
		for _, file := range strings.Fields(parts[2]) {
			path := filepath.Join(dir, file)
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			// A main package's symbols are prefixed main., not by its
			// path; reachLinked keys them by path too, to keep the
			// binaries apart.
			key := pkg + "."
			if f.Name.Name == "main" {
				key = pkg + ":main."
			}
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Body == nil || fn.Name.Name == "init" || fn.Name.Name == "_" {
					continue
				}
				sym, ptrSym := funcSymbol(fn)
				pos := fset.Position(fn.Pos())
				if rel, err := filepath.Rel(wd, pos.Filename); err == nil {
					pos.Filename = rel
				}
				d := decl{pos: pos.String(), syms: []string{key + sym}}
				if ptrSym != "" {
					d.syms = append(d.syms, key+ptrSym)
				}
				decls[key+sym] = d
			}
		}
	}
	return decls
}

// funcSymbol is a declaration's name as the linker spells it after
// stripping type parameters: F, T.M for a value receiver, (*T).M for a
// pointer receiver. For a value receiver it also returns the wrapper's
// name, (*T).M.
func funcSymbol(fn *ast.FuncDecl) (sym, ptrSym string) {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name, ""
	}
	typ := fn.Recv.List[0].Type
	ptr := false
	if star, ok := typ.(*ast.StarExpr); ok {
		ptr, typ = true, star.X
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	recv := typ.(*ast.Ident).Name
	ptrSym = "(*" + recv + ")." + fn.Name.Name
	if ptr {
		return ptrSym, ""
	}
	return recv + "." + fn.Name.Name, ptrSym
}

// nmLine splits a `go tool nm` line: an optional address, the symbol
// type and the whole rest of the line, which may contain spaces (a
// generic shape names its struct fields).
var nmLine = regexp.MustCompile(`^\s*(?:[0-9a-f]+\s+)?([A-Za-z])\s+(.+)$`)

// reachLinked builds every root with inlining off and returns the set
// of text symbols they link, type arguments stripped. Symbols of a
// main package are keyed by that package's path, as reachDeclared keys
// its declarations.
func reachLinked(t *testing.T) map[string]bool {
	dir := t.TempDir()
	out := goCmd(t, ".", "list", "-f", "{{if eq .Name \"main\"}}{{.ImportPath}}{{end}}", "./cmd/...", "./examples/...")
	mains := strings.Fields(out)
	if len(mains) == 0 {
		t.Fatal("go list found no main packages under cmd/ or examples/")
	}
	goCmd(t, ".", append([]string{"build", "-gcflags=all=-l", "-o", dir + string(filepath.Separator)}, mains...)...)
	bin := map[string]string{"capuchin/benchmark": filepath.Join(dir, "benchmark.bin")}
	for _, m := range mains {
		bin[m] = filepath.Join(dir, filepath.Base(m))
	}
	goCmd(t, "benchmark", "build", "-gcflags=all=-l", "-o", bin["capuchin/benchmark"], ".")

	linked := make(map[string]bool)
	for pkg, path := range bin {
		for _, line := range strings.Split(goCmd(t, ".", "tool", "nm", path), "\n") {
			m := nmLine.FindStringSubmatch(line)
			if m == nil || (m[1] != "T" && m[1] != "t") {
				continue
			}
			sym := stripTypeArgs(m[2])
			if strings.HasPrefix(sym, "main.") {
				sym = pkg + ":" + sym
			}
			linked[sym] = true
		}
	}
	return linked
}

// stripTypeArgs removes every balanced [...] from a symbol, so an
// instantiation pkg.(*T[go.shape.int]).M reads pkg.(*T).M.
func stripTypeArgs(sym string) string {
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// reachAllow reads the allowlist: symbol -> reason. An entry without a
// reason, or named twice, fails the gate.
func reachAllow(t *testing.T) map[string]string {
	data, err := os.ReadFile(reachAllowFile)
	if err != nil {
		t.Fatal(err)
	}
	allow := make(map[string]string)
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s:%d: %s has no reason", reachAllowFile, i+1, sym)
		}
		if _, dup := allow[sym]; dup {
			t.Errorf("%s:%d: %s is listed twice", reachAllowFile, i+1, sym)
		}
		allow[sym] = strings.TrimSpace(reason)
	}
	return allow
}

// goCmd runs the go command in dir and returns its standard output.
func goCmd(t *testing.T, dir string, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return string(out)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
