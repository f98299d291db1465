package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"caraoke/internal/cluster"
)

// TestREADMEFlagTable: README's flag table under "City-scale simulation
// harness" has one row per flag main registers, no row for a flag it
// does not, and its "Flags (N)" heading counts them.
func TestREADMEFlagTable(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var flags []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "flag" || sel.Sel.Name == "Parse" {
			return true
		}
		for _, a := range call.Args { // the name is the call's first string literal
			if lit, ok := a.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				flags = append(flags, name)
				break
			}
		}
		return true
	})

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(readme), "\n## City-scale simulation harness\n")
	section, _, _ = strings.Cut(section, "\n## ")
	var rows []string
	for _, m := range regexp.MustCompile("(?m)^\\| `-([a-z0-9-]+)` \\|").FindAllStringSubmatch(section, -1) {
		rows = append(rows, m[1])
	}
	if len(flags) == 0 || len(rows) == 0 {
		t.Fatalf("found %d registered flags and %d table rows", len(flags), len(rows))
	}
	for _, name := range flags {
		if !slices.Contains(rows, name) {
			t.Errorf("flag -%s has no row in README's flag table", name)
		}
	}
	for _, name := range rows {
		if !slices.Contains(flags, name) {
			t.Errorf("README's flag table has a row for -%s, which main does not register", name)
		}
	}
	if want := "Flags (" + strconv.Itoa(len(flags)) + ")."; !strings.Contains(section, want) {
		t.Errorf("README's flag table is not headed %q", want)
	}
}

// TestParseKill: -kill takes the whole failover plan as P@S, and no
// value it accepts is the zero plan.
func TestParseKill(t *testing.T) {
	if got, err := parseKill("1@4294967295"); err != nil || got != (cluster.FailoverPlan{Partition: 1, AtSeq: 4294967295}) {
		t.Errorf("1@4294967295: %+v, %v", got, err)
	}
	for _, v := range []string{"", "0", "0@", "@3", "0@0", "0@-1", "0@4294967296", "-1@3", "x@3", "0@3@4"} {
		if got, err := parseKill(v); err == nil {
			t.Errorf("%q accepted as %+v", v, got)
		}
	}
}
