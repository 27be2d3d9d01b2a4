package morphstore

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestExportedSymbolsDocumented is the doc-lint gate over the public API and
// the engine-internal packages a contributor navigates first (the revive
// `exported` rule, implemented with go/ast so it runs in plain `go test`
// with zero dependencies): every exported top-level identifier of the gated
// packages must carry a doc comment, so that `go doc` on each reads as a
// complete reference. Methods are exempt (the type's doc carries the
// contract). CI runs this test and TestNoDeprecatedSymbols as an explicit
// step; see .github/workflows/ci.yml.
func TestExportedSymbolsDocumented(t *testing.T) {
	var missing []string
	for _, dir := range docGatedDirs {
		forEachExported(t, dir, func(pos, what, name string, method bool, docs ...*ast.CommentGroup) {
			if method {
				return
			}
			for _, d := range docs {
				if d != nil {
					return
				}
			}
			missing = append(missing, pos+": "+what+" "+name)
		})
	}
	if len(missing) > 0 {
		t.Errorf("exported identifiers without doc comments:\n  %s", strings.Join(missing, "\n  "))
	}
}

// TestNoDeprecatedSymbols keeps the gated packages free of deprecated
// surface: an exported identifier (methods included) whose doc carries a
// "Deprecated:" paragraph fails the gate. Each operation has one supported
// form; a superseded form is deleted together with its callers, not kept as
// a wrapper.
func TestNoDeprecatedSymbols(t *testing.T) {
	var deprecated []string
	for _, dir := range docGatedDirs {
		forEachExported(t, dir, func(pos, what, name string, _ bool, docs ...*ast.CommentGroup) {
			for _, d := range docs {
				if hasDeprecatedParagraph(d) {
					deprecated = append(deprecated, pos+": "+what+" "+name)
					return
				}
			}
		})
	}
	if len(deprecated) > 0 {
		t.Errorf("exported identifiers marked Deprecated:\n  %s", strings.Join(deprecated, "\n  "))
	}
}

// docGatedDirs are the packages the doc gates cover: the public root plus
// the internals the observability and execution layers span.
var docGatedDirs = []string{".", "internal/metrics", "internal/ops", "internal/core", "internal/qerr", "internal/delta", "internal/dict", "internal/ingest"}

// hasDeprecatedParagraph reports whether a doc comment holds a paragraph
// starting with "Deprecated:" (the Go convention go doc and gopls honour).
func hasDeprecatedParagraph(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, para := range strings.Split(doc.Text(), "\n\n") {
		if strings.HasPrefix(strings.TrimSpace(para), "Deprecated:") {
			return true
		}
	}
	return false
}

// forEachExported parses one package directory (tests excluded) and calls
// visit for every exported top-level identifier and every exported method,
// with the doc comments that may document it: the declaration's doc, and
// for type and value specs the spec's own doc and line comment (for a
// grouped const/var block the declaration doc is the block comment — the Go
// convention for enum lists).
func forEachExported(t *testing.T, dir string, visit func(pos, what, name string, method bool, docs ...*ast.CommentGroup)) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Base(dir)
	if dir == "." {
		want = "morphstore"
	}
	pkg, ok := pkgs[want]
	if !ok {
		t.Fatalf("package %s not found in %s", want, dir)
	}
	at := func(p token.Pos) string { return fset.Position(p).String() }
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() {
					visit(at(d.Pos()), "func", d.Name.Name, d.Recv != nil, d.Doc)
				}
			case *ast.GenDecl:
				if d.Tok == token.IMPORT {
					continue
				}
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							visit(at(s.Pos()), "type", s.Name.Name, false, d.Doc, s.Doc)
						}
					case *ast.ValueSpec:
						for _, name := range s.Names {
							if name.IsExported() {
								visit(at(name.Pos()), "const/var", name.Name, false, d.Doc, s.Doc, s.Comment)
							}
						}
					}
				}
			}
		}
	}
}
