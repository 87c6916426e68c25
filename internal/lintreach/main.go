// lintreach is the reach lint (`make lint-reach`): every non-test
// function outside package main must be linked into something that
// ships. It builds each cmd/* and examples/* main, and the benchmark
// harness, without inlining, reads the linked repro/... text symbols
// with `go tool nm`, and compares them against a go/ast list of the
// functions the module defines. A function no main links fails the
// lint, named by file:line, unless the allowlist below names it with
// the ROADMAP item that ships it; one only the harness links is printed
// for information. A non-test file outside internal/testsupport that
// imports internal/testsupport fails it too.
//
// Run from the module root: go run ./internal/lintreach
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

const (
	module      = "repro"
	testSupport = module + "/internal/testsupport"
)

// allow holds functions no main links yet, each with the ROADMAP item
// that puts it to use. An entry that is linked or gone fails the lint,
// so the list shrinks as the items land.
var allow = map[string]string{
	module + "/internal/cluster.Gather":                         "item 1",
	module + "/internal/cluster.MergeNotifications":             "item 1",
	module + "/internal/cluster.PartialError.Error":             "item 1",
	module + "/internal/cluster.PartialError.Is":                "item 1",
	module + "/internal/cluster.PartialError.Unwrap":            "item 1",
	module + "/internal/transport.ShardedClient.RequestDetails": "item 1",
	module + "/internal/transport.ShardedClient.InquireIndex":   "item 1",
	module + "/internal/transport.ShardedClient.inquireOn":      "item 1",
	module + "/internal/transport.ShardedClient.RecordConsent":  "item 1",
	module + "/internal/transport.ShardedClient.DefinePolicy":   "item 1",
	module + "/internal/transport.Client.RecordConsent":         "item 1",
	module + "/internal/cluster.Map.WithPromotedReplica":        "item 16",
	module + "/internal/transport.Client.Promote":               "item 16",
	module + "/internal/core.Controller.AdoptMap":               "item 16",
}

func main() {
	defined, bad, err := scan()
	if err != nil {
		fail(err)
	}
	tmp, err := os.MkdirTemp("", "lintreach-")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(tmp)
	shipped, err := linked(filepath.Join(tmp, "shipped"), ".", "./cmd/...", "./examples/...")
	if err != nil {
		fail(err)
	}
	harness, err := linked(filepath.Join(tmp, "harness"), "benchmark", ".")
	if err != nil {
		fail(err)
	}

	var info []string
	for _, name := range sortedKeys(defined) {
		if shipped[name] || allow[name] != "" {
			continue
		}
		where := fmt.Sprintf("%s: %s", defined[name], strings.TrimPrefix(name, module+"/"))
		if harness[name] {
			info = append(info, where)
		} else {
			bad = append(bad, where+" is linked by no shipped main")
		}
	}
	for _, name := range sortedKeys(allow) {
		if _, ok := defined[name]; !ok {
			bad = append(bad, fmt.Sprintf("allowlist: %s (%s) is not defined", name, allow[name]))
		} else if shipped[name] {
			bad = append(bad, fmt.Sprintf("allowlist: %s (%s) is linked now; drop the entry", name, allow[name]))
		}
	}
	fmt.Printf("lint-reach: %d functions only the benchmark harness links:\n", len(info))
	for _, l := range info {
		fmt.Println("  " + l)
	}
	if len(bad) > 0 {
		fmt.Println("lint-reach: non-test code must be linked by a shipped main (or live in _test.go files or internal/testsupport):")
		for _, l := range bad {
			fmt.Println("  " + l)
		}
		os.Exit(1)
	}
	fmt.Printf("lint-reach: %d functions, %d allowlisted\n", len(defined), len(allow))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "lint-reach:", err)
	os.Exit(2)
}

// scan parses the module's non-test Go files that build on this
// platform, without the nested benchmark module. It maps each function
// and method outside package main and internal/testsupport to its
// position, keyed "repro/pkg.Func" or "repro/pkg.Type.Method" whatever
// the receiver's pointer-ness, and names each import of
// internal/testsupport from outside it.
func scan() (map[string]token.Position, []string, error) {
	defined := map[string]token.Position{}
	var bad []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (n == "testdata" || n == "benchmark" || strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := module
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		inSupport := pkg == testSupport || strings.HasPrefix(pkg, testSupport+"/")
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if !inSupport && (p == testSupport || strings.HasPrefix(p, testSupport+"/")) {
				bad = append(bad, fmt.Sprintf("%s: imports %s outside tests", fset.Position(imp.Pos()), p))
			}
		}
		if inSupport || f.Name.Name == "main" {
			return nil
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			name := pkg + "." + fd.Name.Name
			if fd.Recv != nil {
				name = pkg + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			defined[name] = fset.Position(fd.Pos())
		}
		return nil
	})
	return defined, bad, err
}

// recvType names a receiver's type without pointer or type parameters.
func recvType(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvType(t.X)
	case *ast.IndexExpr:
		return recvType(t.X)
	case *ast.IndexListExpr:
		return recvType(t.X)
	case *ast.Ident:
		return t.Name
	}
	return fmt.Sprintf("%T", e)
}

// linked builds the main packages pkgs of dir into out without inlining
// and returns the repro functions their binaries hold.
func linked(out, dir string, pkgs ...string) (map[string]bool, error) {
	out += string(filepath.Separator)
	args := append([]string{"build", "-gcflags=all=-l", "-o", out}, pkgs...)
	if err := run(dir, nil, "go", args...); err != nil {
		return nil, err
	}
	bins, err := os.ReadDir(out)
	if err != nil {
		return nil, err
	}
	syms := map[string]bool{}
	for _, b := range bins {
		var nm bytes.Buffer
		if err := run(".", &nm, "go", "tool", "nm", filepath.Join(out, b.Name())); err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(&nm)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			if name, ok := textSymbol(sc.Text()); ok {
				syms[name] = true
			}
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return syms, nil
}

// derived matches the suffixes the compiler gives a function's
// closures (nested ones too), go and defer wrappers and method values.
var derived = regexp.MustCompile(`(\.(func|gowrap|deferwrap)\d+(\.\d+)*|-fm)+$`)

// textSymbol reads one `go tool nm` line ("addr T name") and returns
// the repro function it names, in scan's form. The name is the rest of
// the line, not the third field: an instantiated generic carries its
// shape in brackets, and a shape may hold spaces.
func textSymbol(line string) (string, bool) {
	f := strings.Fields(line)
	if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
		return "", false
	}
	name := strings.TrimSpace(line[strings.Index(line, " "+f[1]+" ")+3:])
	if !strings.HasPrefix(name, module+"/") {
		return "", false
	}
	name = derived.ReplaceAllString(dropBrackets(name), "")
	return strings.NewReplacer("(*", "", ")", "").Replace(name), true
}

// dropBrackets removes every bracketed type-argument list, nested or not.
func dropBrackets(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
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

func run(dir string, stdout *bytes.Buffer, name string, args ...string) error {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	if stdout != nil {
		cmd.Stdout = stdout
	}
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err)
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
