// Command reach fails when a function under internal/ is linked by no
// binary, or a package-level const, var or type under internal/ is
// referenced by no Go file in the repository, and it is not on the
// allowlist; and when an allowlist entry is stale.
//
// It reads `go tool nm` output for the repository's binaries, built with
// -gcflags=all=-l so that inlining hides no caller, on standard input, and
// compares the text symbols with every function that has a body in the
// non-test files under internal/. A second pass parses every Go file below
// the repository root, tests included, and counts a name as referenced
// when it appears bare in its own package or as pkg.Name in a file that
// imports the package. Run it from the repository root:
//
//	for b in bin/*; do go tool nm "$b"; done | go run ./scripts/reach
//
// Each line of scripts/reach/allowlist.txt is a symbol, blank space and the
// reason the declaration stays although nothing links or references it. A
// symbol is the package path below internal/, the receiver type for a
// method, and the name: sim.State.RunUnfused, weyl.CoordCNOT. Lines
// starting with # are comments.
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const (
	modulePrefix  = "repro/internal/"
	sourceRoot    = "internal"
	allowlistPath = "scripts/reach/allowlist.txt"
)

// fn is one function declaration with a body, or one package-level const,
// var or type name.
type fn struct {
	pos   string
	lines int  // from the func keyword's line to the closing brace's; 0 for a name
	name  bool // a const, var or type: used means referenced, not linked
}

func main() {
	linked, err := readLinked(os.Stdin)
	if err == nil && len(linked) == 0 {
		err = fmt.Errorf("no %s text symbols on standard input", modulePrefix)
	}
	exitIf(err)
	decls, err := parseDecls(sourceRoot)
	exitIf(err)
	names, referenced, err := parseNames(".")
	exitIf(err)
	unreferenced := 0
	for key, d := range names {
		decls[key] = d
		if referenced[key] {
			linked[key] = true
		} else {
			unreferenced++
		}
	}
	allow, err := readAllowlist(allowlistPath)
	exitIf(err)
	problems, unlinked, total := compare(decls, linked, allow)
	fmt.Printf("reach: %d of %d function-body lines under %s/ are linked by no binary, %d of %d package-level names referenced by no file; %d allowlist entries\n",
		unlinked, total, sourceRoot, unreferenced, len(names), len(allow))
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		os.Exit(1)
	}
}

func exitIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(1)
	}
}

// readLinked collects the keys of the text symbols in nm output.
func readLinked(r io.Reader) (map[string]bool, error) {
	linked := map[string]bool{}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if key, ok := symbolKey(sc.Text()); ok {
			linked[key] = true
		}
	}
	return linked, sc.Err()
}

// symbolKey reads one line of nm output (address, kind letter, name) and
// returns the key of a text symbol under internal/, as declKey spells it.
// Only the first two fields are split off: the name of a generic
// instantiation holds spaces ((*Store[go.shape.struct { A int }]).Get).
// Type arguments are stripped, a pointer receiver reads as its base type,
// so a value method matches whether nm shows T.M or the autogenerated
// (*T).M, and a method value's -fm wrapper reads as the method. Closures
// (F.func1) get keys that no declaration has.
func symbolKey(line string) (string, bool) {
	_, rest, _ := strings.Cut(strings.TrimLeft(line, " "), " ")
	kind, name, _ := strings.Cut(rest, " ")
	if kind != "T" && kind != "t" || !strings.HasPrefix(name, modulePrefix) {
		return "", false
	}
	s, ok := stripBrackets(strings.TrimSuffix(strings.TrimPrefix(name, modulePrefix), "-fm"))
	if !ok {
		return "", false
	}
	slash := strings.LastIndexByte(s, '/') + 1
	dot := strings.IndexByte(s[slash:], '.')
	if dot < 0 {
		return "", false
	}
	pkg, sym := s[:slash+dot], s[slash+dot+1:]
	if strings.HasPrefix(sym, "(*") {
		recv, method, _ := strings.Cut(sym[2:], ")")
		sym = recv + method
	}
	return pkg + "." + sym, true
}

// stripBrackets removes every balanced [...] group, nested ones included,
// and reports false when the brackets do not balance.
func stripBrackets(s string) (string, bool) {
	var b strings.Builder
	depth := 0
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] == '[':
			depth++
		case s[i] == ']':
			if depth--; depth < 0 {
				return "", false
			}
		case depth == 0:
			b.WriteByte(s[i])
		}
	}
	return b.String(), depth == 0
}

// parseDecls maps the key of every function with a body in the non-test
// Go files under root to its declaration. init functions are left out: the
// linker numbers them (init.0) and links them with their package.
func parseDecls(root string) (map[string]fn, error) {
	decls := map[string]fn{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil && (fd.Recv != nil || fd.Name.Name != "init") {
				start := fset.Position(fd.Pos())
				decls[declKey(filepath.ToSlash(pkg), fd)] = fn{
					pos:   start.String(),
					lines: fset.Position(fd.Body.Rbrace).Line - start.Line + 1,
				}
			}
		}
		return nil
	})
	return decls, err
}

// parseNames walks every Go file below root, tests included. It returns
// the package-level const, var and type names declared in the non-test
// files under root/internal/, keyed pkg.Name, and the set of keys some
// file references: a bare identifier in a file of the declaring package's
// directory, or a selector pkg.Name on an import of the package. Field,
// parameter and method names are declarations, never references; a local
// name that shadows a package-level one reads as a reference to it.
func parseNames(root string) (map[string]fn, map[string]bool, error) {
	names, referenced := map[string]fn{}, map[string]bool{}
	fset := token.NewFileSet()
	src := filepath.Join(root, sourceRoot)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "" // the file's package key when it lies under root/internal/
		if rel, err := filepath.Rel(src, filepath.Dir(path)); err == nil && !strings.HasPrefix(rel, "..") {
			pkg = filepath.ToSlash(rel)
		}
		declares := pkg != "" && !strings.HasSuffix(path, "_test.go")
		imports := map[string]string{} // local name → package key
		for _, is := range f.Imports {
			p := strings.Trim(is.Path.Value, `"`)
			if !strings.HasPrefix(p, modulePrefix) {
				continue
			}
			local := p[strings.LastIndexByte(p, '/')+1:]
			if is.Name != nil {
				local = is.Name.Name
			}
			imports[local] = strings.TrimPrefix(p, modulePrefix)
		}
		skip := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok == token.IMPORT {
				continue
			}
			for _, spec := range gd.Specs {
				var ids []*ast.Ident
				switch sp := spec.(type) {
				case *ast.ValueSpec:
					ids = sp.Names
				case *ast.TypeSpec:
					ids = []*ast.Ident{sp.Name}
				}
				for _, id := range ids {
					skip[id] = true
					if declares && id.Name != "_" {
						names[pkg+"."+id.Name] = fn{pos: fset.Position(id.Pos()).String(), name: true}
					}
				}
			}
		}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				skip[n.Name] = true
			case *ast.Field:
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					referenced[imports[x.Name]+"."+n.Sel.Name] = true
					return false
				}
				ast.Inspect(n.X, visit) // n.Sel is a field or method
				return false
			case *ast.Ident:
				if pkg != "" && !skip[n] {
					referenced[pkg+"."+n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(f, visit)
		return nil
	})
	return names, referenced, err
}

// declKey is pkg.Name for a function and pkg.Recv.Name for a method, with
// the receiver's pointer and type parameters dropped.
func declKey(pkg string, fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return pkg + "." + fd.Name.Name
	}
	recv, _ := stripBrackets(strings.TrimPrefix(types.ExprString(fd.Recv.List[0].Type), "*"))
	return pkg + "." + recv + "." + fd.Name.Name
}

// readAllowlist parses the allowlist into symbol → reason.
func readAllowlist(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allow := map[string]string{}
	for n, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, " ")
		if reason = strings.TrimSpace(reason); reason == "" || allow[sym] != "" {
			return nil, fmt.Errorf("%s:%d: %s needs exactly one entry, with a reason", path, n+1, sym)
		}
		allow[sym] = reason
	}
	return allow, nil
}

// compare returns one sorted message per problem, the body lines of the
// unlinked functions and the body lines of all functions. linked holds the
// linked functions and the referenced names.
func compare(decls map[string]fn, linked map[string]bool, allow map[string]string) (problems []string, unlinked, total int) {
	for key, d := range decls {
		total += d.lines
		if linked[key] {
			continue
		}
		unlinked += d.lines
		switch {
		case allow[key] != "":
		case d.name:
			problems = append(problems, fmt.Sprintf("%s: %s is referenced by no Go file: delete it, or allowlist it in %s with the reason it stays",
				d.pos, key, allowlistPath))
		default:
			problems = append(problems, fmt.Sprintf("%s: %s (%d lines) is linked by no binary: delete it, or allowlist it in %s with the reason it stays",
				d.pos, key, d.lines, allowlistPath))
		}
	}
	for key := range allow {
		if d, ok := decls[key]; !ok {
			problems = append(problems, fmt.Sprintf("%s: %s names no function or package-level name under %s/: remove the entry", allowlistPath, key, sourceRoot))
		} else if linked[key] && d.name {
			problems = append(problems, fmt.Sprintf("%s: %s is referenced now: remove the entry", allowlistPath, key))
		} else if linked[key] {
			problems = append(problems, fmt.Sprintf("%s: %s is linked by a binary now: remove the entry", allowlistPath, key))
		}
	}
	sort.Strings(problems)
	return problems, unlinked, total
}
