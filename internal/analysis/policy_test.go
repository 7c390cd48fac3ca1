package analysis_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"reflect"
	"testing"

	"cqp/internal/analysis"
)

// TestLintAllowFiltering pins the suppression contract on a synthetic
// package: an annotated violation with a reason is dropped, a bare
// annotation without a reason suppresses nothing (and allowaudit
// reports it), and an unannotated violation always surfaces. Outside
// the determinism scope the same source yields no determinism finding.
func TestLintAllowFiltering(t *testing.T) {
	const src = `package fixture

import "time"

func bare() int64 {
	//lint:allow determinism
	return time.Now().Unix()
}

func justified() int64 {
	//lint:allow determinism this test fixture documents the suppression syntax
	return time.Now().Unix()
}

func naked() int64 {
	return time.Now().Unix()
}
`
	lint := func(path string) []string {
		t.Helper()
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		pkg, info, err := analysis.TypeCheck(path, fset, []*ast.File{f}, importer.ForCompiler(fset, "source", nil))
		if err != nil {
			t.Fatal(err)
		}
		findings, err := analysis.Lint(fset, []*ast.File{f}, pkg, info)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, f := range findings {
			got = append(got, fmt.Sprintf("%s:%d", f.Analyzer, f.Pos.Line))
		}
		return got
	}

	want := []string{"determinism:7", "determinism:16", "allowaudit:6"}
	if got := lint("cqp/internal/core"); !reflect.DeepEqual(got, want) {
		t.Errorf("in scope: findings = %v, want %v", got, want)
	}
	// Out of scope, allowaudit reads the same scope: the reasoned allow
	// suppresses no live finding, so it is stale.
	want = []string{"allowaudit:6", "allowaudit:11"}
	if got := lint("cqp/internal/server"); !reflect.DeepEqual(got, want) {
		t.Errorf("out of scope: findings = %v, want %v", got, want)
	}
}
