package biodeg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameExportedIdentifiers checks that every biodeg.Name the
// README and DESIGN documents mention is an exported top-level
// identifier of this package, so the docs cannot keep naming API that
// was removed or renamed.
func TestDocsNameExportedIdentifiers(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, f := range pkgs["biodeg"].Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					declared[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						declared[spec.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							declared[n.Name] = true
						}
					}
				}
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("parsed no declarations from package biodeg")
	}
	ref := regexp.MustCompile(`\bbiodeg\.([A-Z]\w*)`)
	for _, doc := range []string{"../README.md", "../DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ref.FindAllStringSubmatch(string(text), -1) {
			if !declared[m[1]] {
				t.Errorf("%s names biodeg.%s, which is not an exported top-level identifier of package biodeg", doc, m[1])
			}
		}
	}
}
