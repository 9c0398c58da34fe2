package netbandit_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestGodocCoverage enforces the documentation contract on the public
// facade and the shard subsystem (the packages whose invariants operators
// and library users depend on): every package has a package-level doc
// comment, and every exported top-level identifier — types, funcs,
// methods on exported types, consts, and vars — carries a doc comment.
// CI runs this in the docs job, so an undocumented export fails the build
// rather than rotting silently.
func TestGodocCoverage(t *testing.T) {
	for _, dir := range []string{".", "internal/shard", "internal/shard/transport"} {
		for _, miss := range undocumented(t, dir) {
			t.Errorf("%s", miss)
		}
	}
}

// undocumented parses one directory's non-test files and returns a
// description of every exported identifier lacking a doc comment.
func undocumented(t *testing.T, dir string) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var missing []string
	for name, pkg := range pkgs {
		if strings.HasSuffix(name, "_test") {
			continue
		}
		hasPkgDoc := false
		for path, file := range pkg.Files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			if file.Doc != nil {
				hasPkgDoc = true
			}
			for _, decl := range file.Decls {
				missing = append(missing, undocumentedDecl(fset, decl)...)
			}
		}
		if !hasPkgDoc {
			missing = append(missing, fmt.Sprintf("%s: package %s has no package doc comment", dir, name))
		}
	}
	return missing
}

func undocumentedDecl(fset *token.FileSet, decl ast.Decl) []string {
	var missing []string
	report := func(pos token.Pos, what, name string) {
		missing = append(missing, fmt.Sprintf("%s: exported %s %s has no doc comment", fset.Position(pos), what, name))
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || d.Doc != nil {
			return nil
		}
		// Methods count when their receiver type is exported.
		if d.Recv != nil && len(d.Recv.List) == 1 && !exportedReceiver(d.Recv.List[0].Type) {
			return nil
		}
		report(d.Pos(), "function", d.Name.Name)
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
					report(s.Pos(), "type", s.Name.Name)
				}
			case *ast.ValueSpec:
				// A const/var group may be covered by the group comment;
				// otherwise each exported spec needs its own.
				if d.Doc != nil && len(d.Specs) > 1 {
					continue
				}
				for _, n := range s.Names {
					if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						report(n.Pos(), "const/var", n.Name)
					}
				}
			}
		}
	}
	return missing
}

// exportedReceiver reports whether a method receiver names an exported
// type (unwrapping pointers and generics).
func exportedReceiver(expr ast.Expr) bool {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.Ident:
			return e.IsExported()
		default:
			return false
		}
	}
}

// TestExportsReachable keeps dead exports from accumulating. Every
// exported top-level func, type, var, or const under internal/ must be
// referenced from another package (test files and the nbbench module
// included) or from non-test code of its own package. Every identifier
// the facade (the root package) exports must be referenced by Go code
// outside the root package — cmd/, examples/, or nbbench/ — or be a type
// named by another kept facade declaration; root tests alone do not keep
// a re-export alive. A grouped const block is one unit (enum values stay
// together) and methods are exempt.
func TestExportsReachable(t *testing.T) {
	for _, miss := range unreachableExports(t, ".") {
		t.Errorf("%s", miss)
	}
}

// goPkg is one directory's parsed Go files, test files included.
type goPkg struct {
	path  string // import path
	name  string // package clause of the non-test files
	files map[string]*ast.File
}

// exportUnit is one reachability unit: a top-level declaration, or every
// exported name of one grouped const block.
type exportUnit struct {
	pos   token.Position
	names []string
}

func isTestFile(name string) bool { return strings.HasSuffix(name, "_test.go") }

func unreachableExports(t *testing.T, root string) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs := parseTree(t, fset, root)
	pkgName := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		pkgName[p.path] = p.name
	}

	// Counted qualified references, keyed "import/path.Name". A qualified
	// reference always comes from another package; one into the facade
	// counts only from outside the root directory.
	referenced := map[string]bool{}
	for _, p := range pkgs {
		for _, f := range p.files {
			imports := map[string]string{} // local name -> import path
			for _, is := range f.Imports {
				path := strings.Trim(is.Path.Value, `"`)
				local, ok := pkgName[path]
				if !ok {
					local = path[strings.LastIndex(path, "/")+1:]
				}
				if is.Name != nil {
					local = is.Name.Name
				}
				imports[local] = path
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok {
					if path, ok := imports[x.Name]; ok && !(path == "netbandit" && p.path == "netbandit") {
						referenced[path+"."+sel.Sel.Name] = true
					}
				}
				return true
			})
		}
	}

	var missing []string
	for _, p := range pkgs {
		facade := p.path == "netbandit"
		if !facade && !strings.HasPrefix(p.path, "netbandit/internal/") {
			continue
		}
		local := unqualifiedUses(p)
		for _, u := range exportUnits(fset, p) {
			alive := false
			for _, name := range u.names {
				alive = alive || referenced[p.path+"."+name] || local[name]
			}
			if !alive {
				where := "no reference from another package or from non-test code of its own"
				if facade {
					where = "no reference from cmd/, examples/, or nbbench/"
				}
				missing = append(missing, fmt.Sprintf("%s: exported %s has %s", u.pos, strings.Join(u.names, ", "), where))
			}
		}
	}
	sort.Strings(missing)
	return missing
}

// parseTree parses every Go package directory under root, skipping hidden
// and testdata directories.
func parseTree(t *testing.T, fset *token.FileSet, root string) []*goPkg {
	t.Helper()
	var pkgs []*goPkg
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		base := d.Name()
		if dir != root && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") || base == "testdata") {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		p := &goPkg{path: path.Join("netbandit", filepath.ToSlash(dir)), files: map[string]*ast.File{}}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			fname := filepath.Join(dir, e.Name())
			f, err := parser.ParseFile(fset, fname, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files[fname] = f
			if !isTestFile(fname) || p.name == "" {
				p.name = strings.TrimSuffix(f.Name.Name, "_test")
			}
		}
		if len(p.files) > 0 {
			pkgs = append(pkgs, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// exportUnits lists a package's exported top-level declarations in its
// non-test files, one unit per declaration and one per grouped const
// block.
func exportUnits(fset *token.FileSet, p *goPkg) []exportUnit {
	var units []exportUnit
	for fname, f := range p.files {
		if isTestFile(fname) {
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					units = append(units, exportUnit{fset.Position(d.Pos()), []string{d.Name.Name}})
				}
			case *ast.GenDecl:
				var group *exportUnit
				for _, spec := range d.Specs {
					var idents []*ast.Ident
					switch s := spec.(type) {
					case *ast.TypeSpec:
						idents = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						idents = s.Names
					}
					for _, id := range idents {
						if !id.IsExported() {
							continue
						}
						if d.Tok == token.CONST && d.Lparen.IsValid() {
							if group == nil {
								group = &exportUnit{fset.Position(id.Pos()), nil}
							}
							group.names = append(group.names, id.Name)
							continue
						}
						units = append(units, exportUnit{fset.Position(id.Pos()), []string{id.Name}})
					}
				}
				if group != nil {
					units = append(units, *group)
				}
			}
		}
	}
	return units
}

// unqualifiedUses collects the identifiers a package's non-test files use
// unqualified, excluding declaring names, selector fields, and field,
// parameter, and method names.
func unqualifiedUses(p *goPkg) map[string]bool {
	used := map[string]bool{}
	for fname, f := range p.files {
		if isTestFile(fname) {
			continue
		}
		skip := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				skip[n.Name] = true
			case *ast.TypeSpec:
				skip[n.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.Field:
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.SelectorExpr:
				skip[n.Sel] = true
			case *ast.Ident:
				if !skip[n] {
					used[n.Name] = true
				}
			}
			return true
		})
	}
	return used
}

// TestDocSnippetsUseFacade keeps the README's Go snippets and the package
// doc in doc.go in step with the facade: every netbandit.X they mention
// must be an identifier the root package declares.
func TestDocSnippetsUseFacade(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string]bool{}
	for _, p := range parseTree(t, fset, ".") {
		if p.path != "netbandit" {
			continue
		}
		for _, u := range exportUnits(fset, p) {
			for _, name := range u.names {
				declared[name] = true
			}
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	snippets := map[string]string{}
	for i, m := range regexp.MustCompile("(?s)```go\n(.*?)```").FindAllStringSubmatch(string(readme), -1) {
		snippets[fmt.Sprintf("README.md go block %d", i+1)] = m[1]
	}
	doc, err := parser.ParseFile(fset, "doc.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	snippets["doc.go package doc"] = doc.Doc.Text()
	for where, text := range snippets {
		for _, m := range regexp.MustCompile(`\bnetbandit\.([A-Za-z_]\w*)`).FindAllStringSubmatch(text, -1) {
			if !declared[m[1]] {
				t.Errorf("%s uses netbandit.%s, which the facade does not declare", where, m[1])
			}
		}
	}
}
