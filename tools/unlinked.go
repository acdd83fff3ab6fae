//go:build ignore

// Command unlinked lists the functions that no binary of the repository
// links. It builds every main package of the module (cmd/ and examples/)
// and of the e2ebench module with inlining off, reads their symbols with
// `go tool nm`, and matches them against every non-test function
// declaration outside e2ebench/ and tools/. A function in no symbol table
// is code that only tests run. Run it from the repository root:
//
//	go run tools/unlinked.go
//
// Each line gives the function's length in lines (from `func` to its
// closing brace), its name and its position; the last line gives the
// totals. Methods of generic types match whatever they are instantiated
// with: the linker names them `pkg.(*vec[go.shape.…]).m`.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// skipDirs are not scanned for declarations: e2ebench is a consumer
// (its own module, linked as one of the binaries) and tools holds this
// program.
var skipDirs = map[string]bool{"e2ebench": true, "tools": true}

type decl struct {
	pkg   string // import path; main packages match only their own binary
	main  bool
	sym   string // linker name after the package qualifier: F, T.M or (*T).M
	file  string
	line  int
	lines int
}

// key is d's linker symbol with type arguments stripped.
func (d decl) key() string {
	if d.main {
		return "main." + d.sym
	}
	return d.pkg + "." + d.sym
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "unlinked:", err)
		os.Exit(1)
	}
}

func run() error {
	module, err := modulePath("go.mod")
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "unlinked")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	// symbols[binary import path] is the set of linked function symbols.
	symbols := map[string]map[string]bool{}
	for _, dir := range []string{".", "e2ebench"} {
		mains, err := goList(dir)
		if err != nil {
			return err
		}
		for _, pkg := range mains {
			bin := filepath.Join(tmp, path.Base(pkg))
			if err := goCmd(dir, nil, "build", "-gcflags=all=-l", "-o", bin, pkg); err != nil {
				return err
			}
			var out bytes.Buffer
			if err := goCmd(".", &out, "tool", "nm", bin); err != nil {
				return err
			}
			symbols[pkg] = textSymbols(&out)
		}
	}

	decls, err := declarations(module)
	if err != nil {
		return err
	}
	var unlinked []decl
	total := 0
	for _, d := range decls {
		if linked(d, symbols) {
			continue
		}
		unlinked = append(unlinked, d)
		total += d.lines
	}
	sort.Slice(unlinked, func(i, j int) bool {
		a, b := unlinked[i], unlinked[j]
		if a.lines != b.lines {
			return a.lines > b.lines
		}
		if a.file != b.file {
			return a.file < b.file
		}
		return a.line < b.line
	})
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for _, d := range unlinked {
		fmt.Fprintf(w, "%5d  %-50s %s:%d\n", d.lines, path.Base(d.pkg)+"."+d.sym, d.file, d.line)
	}
	fmt.Fprintf(w, "%d functions, %d lines in no binary (%d binaries linked)\n", len(unlinked), total, len(symbols))
	return nil
}

func linked(d decl, symbols map[string]map[string]bool) bool {
	if d.main {
		return symbols[d.pkg][d.key()]
	}
	for _, syms := range symbols {
		if syms[d.key()] {
			return true
		}
	}
	return false
}

func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("run from the repository root: %w", err)
	}
	for _, l := range strings.Split(string(b), "\n") {
		if f := strings.Fields(l); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// goList returns the import paths of the main packages in dir's module.
func goList(dir string) ([]string, error) {
	var out bytes.Buffer
	if err := goCmd(dir, &out, "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./..."); err != nil {
		return nil, err
	}
	return strings.Fields(out.String()), nil
}

func goCmd(dir string, stdout *bytes.Buffer, args ...string) error {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	if stdout != nil {
		cmd.Stdout = stdout
	}
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go %s (in %s): %w", strings.Join(args, " "), dir, err)
	}
	return nil
}

// textSymbols reads `go tool nm` output ("addr code name") and returns
// the names of text symbols with type arguments stripped, so that every
// instantiation of a generic function or method maps to its declaration.
func textSymbols(nm *bytes.Buffer) map[string]bool {
	syms := map[string]bool{}
	sc := bufio.NewScanner(nm)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
		if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
			syms[stripTypeArgs(f[2])] = true
		}
	}
	return syms
}

func stripTypeArgs(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// declarations parses every non-test Go file of the module outside
// skipDirs that the default build context compiles.
func declarations(module string) ([]decl, error) {
	var decls []decl
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if p != "." && (skipDirs[p] || e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(p)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Join(".", dir), name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := module
		if rel := filepath.ToSlash(filepath.Clean(dir)); rel != "." {
			pkg = module + "/" + rel
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || (fd.Recv == nil && fd.Name.Name == "init") {
				continue
			}
			start, end := fset.Position(fd.Pos()).Line, fset.Position(fd.End()).Line
			decls = append(decls, decl{
				pkg:   pkg,
				main:  f.Name.Name == "main",
				sym:   symbolName(fd),
				file:  filepath.ToSlash(p),
				line:  start,
				lines: end - start + 1,
			})
		}
		return nil
	})
	return decls, err
}

// symbolName is fd's linker name after its package qualifier.
func symbolName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	star := false
	if s, ok := t.(*ast.StarExpr); ok {
		star, t = true, s.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	recv := t.(*ast.Ident).Name
	if star {
		return "(*" + recv + ")." + fd.Name.Name
	}
	return recv + "." + fd.Name.Name
}
