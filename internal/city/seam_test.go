package city

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"slices"
	"strings"
	"testing"
)

// TestSystemReadsNoTruth holds the world/system seam of the package
// comment over this package's non-test files. Only NewSim, the
// coordinator in runPipelined (not the reader goroutines it starts) and
// summarize may name the world, as the Sim.world handle or the world
// package; no other declaration may hold one. summarize's one use is
// s.world.Parked(), the truth leak ROADMAP item 5 removes. The score's
// truth has the same seam: only the coordinator calls truthOf and sets
// an epochJob's truth, and only post.score reads it. The world's speed
// view has one reader, the §7 scorer: Sim.scoreSpeeds names the world
// once, to call Speeds, and nothing else calls a Speeds method or
// selects one off a world handle.
func TestSystemReadsNoTruth(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// uses lists the identifiers named world under n: the handle (a
	// field selector or a literal key) or the package qualifier.
	uses := func(n ast.Node) (ids []*ast.Ident) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == "world" {
				ids = append(ids, id)
			}
			return true
		})
		return ids
	}
	refuse := func(ids []*ast.Ident, who string) {
		for _, id := range ids {
			t.Errorf("%s: %s names the world; only NewSim, runPipelined's coordinator and summarize's Parked call may",
				fset.Position(id.Pos()), who)
		}
	}
	// truths lists the places under n that touch a reader-epoch's truth:
	// a call of truthOf, or the truth field of an epochJob.
	truths := func(n ast.Node) (ids []*ast.Ident) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "truthOf" {
					ids = append(ids, id)
				}
			case *ast.SelectorExpr:
				if x.Sel.Name == "truth" {
					ids = append(ids, x.Sel)
				}
			}
			return true
		})
		return ids
	}
	refuseTruth := func(ids []*ast.Ident, who string) {
		for _, id := range ids {
			t.Errorf("%s: %s touches the score's truth; only runPipelined's coordinator may compute it and post.score read it",
				fset.Position(id.Pos()), who)
		}
	}
	// speedViews lists the reads of the world's speed view under n: a
	// call of any method named Speeds, or a Speeds selected off a world
	// handle (a method value).
	speedViews := func(n ast.Node) (ids []*ast.Ident) {
		ast.Inspect(n, func(n ast.Node) bool {
			var sel *ast.SelectorExpr
			switch x := n.(type) {
			case *ast.CallExpr:
				sel, _ = x.Fun.(*ast.SelectorExpr)
			case *ast.SelectorExpr:
				if h, ok := x.X.(*ast.Ident); ok && h.Name == "world" {
					sel = x
				}
				if h, ok := x.X.(*ast.SelectorExpr); ok && h.Sel.Name == "world" {
					sel = x
				}
			}
			if sel != nil && sel.Sel.Name == "Speeds" && !slices.Contains(ids, sel.Sel) {
				ids = append(ids, sel.Sel)
			}
			return true
		})
		return ids
	}
	scorer := false      // post.score, the one reader of job.truth, exists
	speedScorer := false // Sim.scoreSpeeds, the one reader of the speed view, exists
	handle := false      // Sim has the world field this test keys on
	for _, f := range pkgs["city"].Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.Name == "Sim" {
						for _, fld := range ts.Type.(*ast.StructType).Fields.List {
							for _, name := range fld.Names {
								handle = handle || name.Name == "world"
							}
						}
						continue
					}
					refuse(uses(spec), "a package-level declaration")
				}
			case *ast.FuncDecl:
				if d.Name.Name != "scoreSpeeds" {
					for _, id := range speedViews(d) {
						t.Errorf("%s: %s reads the world's speed view; only the §7 scorer, Sim.scoreSpeeds, may",
							fset.Position(id.Pos()), d.Name.Name)
					}
				}
				switch name := d.Name.Name; name {
				case "NewSim":
					refuseTruth(truths(d), name)
				case "runPipelined":
					ast.Inspect(d.Body, func(n ast.Node) bool {
						if lit, ok := n.(*ast.FuncLit); ok {
							refuse(uses(lit), "a goroutine or closure in runPipelined")
							refuseTruth(truths(lit), "a goroutine or closure in runPipelined")
							return false
						}
						return true
					})
				case "score":
					// The one reader of job.truth: it computes none.
					scorer = d.Recv != nil
					refuse(uses(d), name)
					for _, id := range truths(d) {
						if id.Name == "truthOf" {
							refuseTruth([]*ast.Ident{id}, name)
						}
					}
				case "scoreSpeeds":
					// The §7 scorer: its one use of the world is the
					// speed view, read once.
					speedScorer = d.Recv != nil
					if views, ids := speedViews(d), uses(d); len(views) != 1 || len(ids) != 1 {
						t.Errorf("scoreSpeeds names the world %d times and reads its speed view %d times; one s.world.Speeds() is its only allowed use",
							len(ids), len(views))
					}
					refuseTruth(truths(d), name)
				case "summarize":
					// The one leak: s.world.Parked() copies the parking
					// answer from the truth. ROADMAP item 5 removes it.
					parked := 0
					ast.Inspect(d.Body, func(n ast.Node) bool {
						call, ok := n.(*ast.CallExpr)
						if !ok {
							return true
						}
						if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Parked" {
							if h, ok := sel.X.(*ast.SelectorExpr); ok && h.Sel.Name == "world" {
								parked++
							}
						}
						return true
					})
					if ids := uses(d); len(ids) != parked || parked > 1 {
						t.Errorf("summarize names the world %d times and calls s.world.Parked() %d times; Parked, once, is its only allowed use",
							len(ids), parked)
					}
					refuseTruth(truths(d), name)
				default:
					refuse(uses(d), name)
					refuseTruth(truths(d), name)
				}
			}
		}
	}
	if !handle {
		t.Fatal("Sim has no world field: the seam this test walks is gone or renamed")
	}
	if !scorer {
		t.Fatal("post has no score method: the truth seam this test walks is gone or renamed")
	}
	if !speedScorer {
		t.Fatal("Sim has no scoreSpeeds method: the speed-view seam this test walks is gone or renamed")
	}
}
