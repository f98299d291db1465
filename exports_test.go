package caraoke

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed lists the exported names no non-test file mentions,
// each with the reason it stays in a non-test file anyway.
var testOnlyAllowed = map[string]string{
	"faults.killError.Unwrap":         "reached through errors.Is(err, faults.ErrKilled), never by name",
	"core.EstimateSpeedTrack":         "reserved by ROADMAP item 2: the collector-side locate step feeds it a car's > 2 sightings",
	"core.ReconstructTransmission":    "reserved by ROADMAP item 1c with core/sic.go: wired into the count path or deleted together",
	"core.CancelTransponder":          "reserved by ROADMAP item 1c with core/sic.go: wired into the count path or deleted together",
	"collector.ParkingService.Depart": "reserved by ROADMAP item 2: the locate step closes a session when a spot's holder is no longer sighted there",
}

// TestNoTestOnlyExports fails when an exported func, method, type,
// const or var declared under internal/ or in the root package is
// named by no non-test .go file of the repository (cmd/, examples/ and
// perfbench/ included) other than at a declaration: such code is an
// oracle or a fixture and belongs in the _test.go file that uses it, or
// it is dead.
//
// It is shallow by design — names, not reachability. A mention is any
// identifier spelled like the declaration, so a field or a local of the
// same name hides an unused export, and a name used only by other
// unused code passes. What it catches is the common case: an entry
// point kept alive by its own tests alone.
func TestNoTestOnlyExports(t *testing.T) {
	mentions := map[string]int{} // identifier → occurrences in non-test files
	declared := map[string]int{} // identifier → of those, declarations below
	var decls []string           // pkg.Name or pkg.Recv.Name, one per declaration
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir // .git, .bench_build
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
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				mentions[id.Name]++
			}
			return true
		})
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." && !strings.HasPrefix(dir, "internal/") {
			return nil
		}
		declare := func(recv string, id *ast.Ident) {
			if id.IsExported() {
				declared[id.Name]++
				decls = append(decls, f.Name.Name+"."+recv+id.Name)
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				recv := ""
				if d.Recv != nil {
					typ := d.Recv.List[0].Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					recv = typ.(*ast.Ident).Name + "." // no generic receivers here
				}
				declare(recv, d.Name)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						declare("", s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							declare("", id)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	sort.Strings(decls)
	stale := map[string]bool{}
	for name := range testOnlyAllowed {
		stale[name] = true
	}
	for _, name := range decls {
		id := name[strings.LastIndex(name, ".")+1:]
		named := mentions[id] > declared[id]
		_, allowed := testOnlyAllowed[name]
		delete(stale, name)
		switch {
		case !named && !allowed:
			t.Errorf("%s: exported, but only declarations and tests name it — delete it, move it into the _test.go file that uses it, or allowlist it with a reason", name)
		case named && allowed:
			t.Errorf("%s is allowlisted but a non-test file names it: drop the entry", name)
		}
	}
	for name := range stale {
		t.Errorf("%s is allowlisted but no longer declared: drop the entry", name)
	}
}
