package resultstore

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestExportedMethodsHaveCallers keeps the store's surface at what its
// callers use: every exported method of Store and Tx must be named by a
// non-test file under internal/ or cmd/ outside this package. An
// operator verb without an operator — nothing but its own test calling
// it — fails here instead of waiting to be found.
func TestExportedMethodsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	nonTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	own, err := parser.ParseDir(fset, ".", nonTest, 0)
	if err != nil {
		t.Fatal(err)
	}
	methods := map[string]string{} // name -> receiver
	for _, pkg := range own {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || !fd.Name.IsExported() {
					continue
				}
				recv := fd.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok && (id.Name == "Store" || id.Name == "Tx") {
					methods[fd.Name.Name] = id.Name
				}
			}
		}
	}
	if len(methods) < 10 {
		t.Fatalf("found only %d exported methods of Store and Tx: %v", len(methods), methods)
	}

	named := map[string]bool{}
	for _, root := range []string{"..", "../../cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() || (root == ".." && path == "../resultstore") {
				return err
			}
			pkgs, err := parser.ParseDir(fset, path, nonTest, 0)
			for _, pkg := range pkgs {
				for _, f := range pkg.Files {
					imported := map[string]bool{} // filepath.Dir names no method
					for _, imp := range f.Imports {
						name := filepath.Base(strings.Trim(imp.Path.Value, `"`))
						if imp.Name != nil {
							name = imp.Name.Name
						}
						imported[name] = true
					}
					ast.Inspect(f, func(n ast.Node) bool {
						if sel, ok := n.(*ast.SelectorExpr); ok {
							if x, ok := sel.X.(*ast.Ident); !ok || !imported[x.Name] {
								named[sel.Sel.Name] = true
							}
						}
						return true
					})
				}
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for name, recv := range methods {
		if !named[name] {
			t.Errorf("%s.%s is exported but no non-test file under internal/ or cmd/ names it: delete it or unexport it", recv, name)
		}
	}
}
