//go:build reach

package ecochip

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist lists the functions no binary links that stay anyway,
// one "pkg.Func  # reason" (or "pkg.Recv.Method  # reason") per line.
const reachAllowlist = "testdata/reach-allowlist.txt"

// TestReach is the link-reachability gate: every non-test function of
// the module must be linked into some shipped binary — a cmd/*, an
// examples/* or the bench/ benchmark — or be listed in the allowlist
// with the reason it stays (a test oracle, a fixture, a cross-check of
// a production formula). The binaries are built with inlining off, so
// every reachable function keeps its own symbol, and `go tool nm`
// lists what the linker kept. Linker liveness keeps some methods that
// are only reachable through interfaces, so the gate can miss dead
// code; it cannot flag live code. Allowlist entries that are now linked
// or no longer declared fail too, so the list only shrinks.
//
// Run it with: go test -tags reach -run '^TestReach$' .
func TestReach(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary")
	}
	decls, mains := declaredFuncs(t, ".")
	linked := linkedFuncs(t, mains)
	allow := readAllowlist(t)

	var unlinked []string
	for key := range decls {
		if !linked[key] && allow[key] == "" {
			unlinked = append(unlinked, key)
		}
	}
	sort.Strings(unlinked)
	for _, key := range unlinked {
		t.Errorf("%s (%s) is linked into no binary: delete it, or list it in %s with a reason",
			key, decls[key], reachAllowlist)
	}
	for key := range allow {
		switch {
		case decls[key] == "":
			t.Errorf("%s: allowlisted but not declared; drop the entry", key)
		case linked[key]:
			t.Errorf("%s: allowlisted but now linked into a binary; drop the entry", key)
		}
	}
}

// declaredFuncs parses every non-test Go file of the module under root
// (bench/ is a module of its own) and returns each function and method
// keyed "pkg.Func" or "pkg.Recv.Method" (see pkgKey), with its
// position, plus the directories of the module's main packages.
func declaredFuncs(t *testing.T, root string) (map[string]string, []string) {
	t.Helper()
	decls := map[string]string{}
	dirOf := map[string]string{} // pkg name -> directory
	var mains []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "bench" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		pkg := pkgKey(dir, f.Name.Name)
		if prev, ok := dirOf[pkg]; ok && prev != dir {
			return fmt.Errorf("package name %s names both %s and %s", pkg, prev, dir)
		}
		dirOf[pkg] = dir
		if f.Name.Name == "main" && !slices.Contains(mains, dir) {
			mains = append(mains, dir)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" || (fn.Recv == nil && fn.Name.Name == "main" && f.Name.Name == "main") {
				continue
			}
			key := pkg + "."
			if fn.Recv != nil {
				key += recvName(fn.Recv.List[0].Type) + "."
			}
			decls[key+fn.Name.Name] = fset.Position(fn.Pos()).String()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls, mains
}

// pkgKey names the package in dir (relative to the module root) in
// declaration keys: the directory name of a library package
// ("explore", "ecochip" at the root), the directory itself for a main
// package ("cmd/ecodse"). Keys must be unique; declaredFuncs checks.
func pkgKey(dir, name string) string {
	switch {
	case name == "main":
		return filepath.ToSlash(dir)
	case dir == ".":
		return "ecochip"
	}
	return filepath.Base(dir)
}

// recvName is the type name of a method receiver, without the pointer
// and without type parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			panic(fmt.Sprintf("unexpected receiver %T", e))
		}
	}
}

// linkedFuncs builds every main package of the module and the bench/
// benchmark with inlining off and returns the set of the module's
// functions their symbol tables hold, keyed like declaredFuncs. A
// package main symbol counts only for the binary built from its own
// directory.
func linkedFuncs(t *testing.T, mains []string) map[string]bool {
	t.Helper()
	tmp := t.TempDir()
	linked := map[string]bool{}
	// build builds the main package in dir (relative to the module
	// root, where the test runs) from dir itself, so bench/ builds in
	// its own module.
	build := func(dir string) {
		mainPkg := filepath.ToSlash(dir)
		bin := filepath.Join(tmp, strings.ReplaceAll(mainPkg, "/", "_"))
		cmd := exec.Command("go", "build", "-gcflags=all=-l", "-o", bin, ".")
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build in %s: %v\n%s", dir, err, out)
		}
		out, err := exec.Command("go", "tool", "nm", bin).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", bin, err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			// "address type name"; a name may hold spaces (generic shapes
			// such as go.shape.struct { ... }), so cut only twice.
			_, rest, _ := strings.Cut(strings.TrimSpace(line), " ")
			typ, sym, _ := strings.Cut(rest, " ")
			if typ != "T" && typ != "t" {
				continue
			}
			if key, ok := symbolKey(stripTypeArgs(sym), mainPkg); ok {
				linked[key] = true
			}
		}
	}
	for _, dir := range append(mains, "bench") {
		build(dir)
	}
	return linked
}

// stripTypeArgs drops every bracketed type-argument list from a symbol,
// counting bracket depth so nested shapes ("go.shape.struct { A []int }")
// come out whole: ecochip/internal/serve.reply[go.shape.*uint8] becomes
// ecochip/internal/serve.reply.
func stripTypeArgs(sym string) string {
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

// symbolKey maps a linked symbol (type arguments stripped) of the
// module to its declaration key: "ecochip/internal/explore.(*CompiledPlan).RunCtx"
// becomes "explore.CompiledPlan.RunCtx", and "main.run" in the binary
// of cmd/ecodse becomes "cmd/ecodse.run". Closures and wrappers
// ("F.func1", "M-fm") are not declarations and never match one.
func symbolKey(sym, mainPkg string) (string, bool) {
	var pkg, rest string
	switch {
	case strings.HasPrefix(sym, "main."):
		pkg, rest = mainPkg, strings.TrimPrefix(sym, "main.")
	case strings.HasPrefix(sym, "ecochip."):
		pkg, rest = "ecochip", strings.TrimPrefix(sym, "ecochip.")
	case strings.HasPrefix(sym, "ecochip/"):
		path, r, ok := strings.Cut(strings.TrimPrefix(sym, "ecochip/"), ".")
		if !ok {
			return "", false
		}
		pkg, rest = filepath.Base(path), r
	default:
		return "", false
	}
	rest = strings.NewReplacer("(*", "", ")", "").Replace(rest)
	return pkg + "." + rest, true
}

// readAllowlist reads the allowlist into entry -> reason; an entry
// without a reason fails the test.
func readAllowlist(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(reachAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	allow := map[string]string{}
	for n, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, "#")
		key, reason = strings.TrimSpace(key), strings.TrimSpace(reason)
		if key == "" || reason == "" || strings.ContainsAny(key, " \t") {
			t.Errorf("%s:%d: want \"pkg.Func  # reason\", got %q", reachAllowlist, n+1, line)
			continue
		}
		if _, dup := allow[key]; dup {
			t.Errorf("%s:%d: %s listed twice", reachAllowlist, n+1, key)
		}
		allow[key] = reason
	}
	return allow
}
