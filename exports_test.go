package caraoke

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed lists the declarations no program reaches that stay in
// a non-test file anyway, each with its reason. A key names a
// declaration (pkg.Name or pkg.Recv.Name) or a file, which covers
// everything declared in it. An entry is a root for what it uses, so the
// code only it calls needs no entry of its own.
var testOnlyAllowed = map[string]string{
	"internal/core/sic.go": "ROADMAP items 3a/3b wire SIC into the §5 count: on the ±27 m street, subtracting what DecodeAll recovers from a fresh " +
		"10-query window moved the mean |count error| from 7.9 to 2.6 cars at m = 24 and from 18.3 to 8.0 at m = 40, and " +
		"DecodeWithSIC recovered 216 ids to DecodeAll's 97 at m = 24, none wrong",
	"core.EstimateSpeedTrack":         "reserved by ROADMAP item 5: the collector-side locate step feeds it a car's > 2 sightings",
	"collector.ParkingService.Depart": "reserved by ROADMAP item 5: the locate step closes a session when a spot's holder is no longer sighted there",
	"dsp.FindPeaks":                   "ROADMAP item 10 leaves alone the thin wrappers that share one implementation with their pooled form",
	"dsp.ClassifyBin":                 "ROADMAP item 10 leaves it alone: a fresh ProbeBank's Tune, Load and Occupancy, the steps the analysis runs on the bank it keeps",
}

// program is every non-test package of the root module and of
// perfbench/, type-checked from source into one object graph; the
// standard library comes from the source importer.
type program struct {
	fset  *token.FileSet
	std   types.Importer
	dirs  map[string]*build.Package // import path → its directory's build files
	pkgs  map[string]*types.Package
	files map[string][]*ast.File // import path → its non-test files
	info  *types.Info
}

func (p *program) Import(path string) (*types.Package, error) {
	if pkg, ok := p.pkgs[path]; ok {
		return pkg, nil
	}
	bp, ok := p.dirs[path]
	if !ok {
		return p.std.Import(path)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(p.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: p}
	pkg, err := conf.Check(path, p.fset, files, p.info)
	if err != nil {
		return nil, err
	}
	p.pkgs[path], p.files[path] = pkg, files
	return pkg, nil
}

// loadProgram type-checks every directory under the repository root
// that holds a buildable non-test .go file; perfbench/ is a module of
// its own whose path, caraoke/perfbench, is its directory's.
func loadProgram(t *testing.T) *program {
	// Type-check std's pure-Go files: no C toolchain, and the API is the same.
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	p := &program{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		dirs:  map[string]*build.Package{},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
	}
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir // .git, .bench_build, fuzz corpora
		}
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			var none *build.NoGoError
			if errors.As(err, &none) {
				return nil
			}
			return err
		}
		p.dirs[strings.TrimSuffix("caraoke/"+filepath.ToSlash(dir), "/.")] = bp
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for path := range p.dirs {
		if _, err := p.Import(path); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// methodKey identifies the methods one interface method name matches:
// an exported name anywhere, an unexported one within its package.
func methodKey(fn *types.Func) string {
	if fn.Exported() {
		return fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// TestNoTestOnlyExports fails when a package-level declaration — func,
// method, type, const or var, exported or not — in a non-test file
// outside perfbench/ is reached by no program: such code is an oracle or
// a fixture and belongs in the _test.go file that uses it, or it is dead.
//
// The walk follows identifier uses from the roots: main of every
// command, example and the harness; the root package's exported API;
// every init function; every package-level var initializer. A method is
// reached when reached code names it, or when its receiver type is
// reached and an interface declared at package scope in the program or
// in std (or the universe's error) has a method of its name.
func TestNoTestOnlyExports(t *testing.T) {
	p := loadProgram(t)

	decl := map[types.Object]ast.Node{} // package-level object → the syntax it uses
	var roots []ast.Node
	ifaces := map[string]bool{"Error": true} // methodKeys of package-scope interfaces; error is the universe's
	seen := map[*types.Package]bool{}
	var scan func(pkg *types.Package)
	scan = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					for i := range it.NumMethods() {
						ifaces[methodKey(it.Method(i))] = true
					}
				}
			}
		}
		for _, imp := range pkg.Imports() {
			scan(imp)
		}
	}
	for path, files := range p.files {
		scan(p.pkgs[path])
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && f.Name.Name == "main") {
						roots = append(roots, d)
					} else {
						decl[p.info.Defs[d.Name]] = d
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							decl[p.info.Defs[s.Name]] = s
						case *ast.ValueSpec:
							for _, id := range s.Names {
								if id.Name != "_" {
									decl[p.info.Defs[id]] = s
								}
							}
							if d.Tok == token.VAR {
								for _, v := range s.Values {
									roots = append(roots, v)
								}
							}
						}
					}
				}
			}
		}
	}

	reached := map[types.Object]bool{}
	var work []types.Object
	mark := func(obj types.Object) {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if _, ok := decl[obj]; ok && !reached[obj] {
			reached[obj] = true
			work = append(work, obj)
		}
	}
	uses := func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && p.info.Uses[id] != nil {
				mark(p.info.Uses[id])
			}
			return true
		})
	}
	walk := func() {
		for len(work) > 0 {
			obj := work[len(work)-1]
			work = work[:len(work)-1]
			uses(decl[obj])
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				named := tn.Type().(*types.Named)
				for i := range named.NumMethods() {
					if m := named.Method(i); ifaces[methodKey(m)] {
						mark(m)
					}
				}
			}
		}
	}
	for _, n := range roots {
		uses(n)
	}
	api := p.pkgs["caraoke"].Scope()
	for _, name := range api.Names() {
		if token.IsExported(name) {
			mark(api.Lookup(name))
		}
	}
	walk()

	// Names and files, to match declarations against the allowlist.
	nameOf := func(obj types.Object) string {
		name := obj.Pkg().Name() + "."
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			recv := sig.Recv().Type()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			name += recv.(*types.Named).Obj().Name() + "."
		}
		return name + obj.Name()
	}
	fileOf := func(obj types.Object) string {
		return filepath.ToSlash(p.fset.Position(obj.Pos()).Filename)
	}
	// An entry names only what no program reaches; what it uses in turn
	// is accounted for by the entry.
	var allowed []types.Object
	for key := range testOnlyAllowed {
		n := len(allowed)
		for obj := range decl {
			if nameOf(obj) == key || fileOf(obj) == key {
				allowed = append(allowed, obj)
				if reached[obj] {
					t.Errorf("allowlist entry %s: a program reaches %s — drop the entry", key, nameOf(obj))
				}
			}
		}
		if len(allowed) == n {
			t.Errorf("allowlist entry %s declares nothing — drop the entry", key)
		}
	}
	for _, obj := range allowed {
		mark(obj)
	}
	walk()

	var missed []string
	for obj := range decl {
		if !reached[obj] && !strings.HasPrefix(fileOf(obj), "perfbench/") {
			missed = append(missed, fmt.Sprintf("%s:%d: %s", fileOf(obj), p.fset.Position(obj.Pos()).Line, nameOf(obj)))
		}
	}
	sort.Strings(missed)
	for _, m := range missed {
		t.Errorf("%s: no program reaches it — move it into the _test.go file that uses it, delete it, or allowlist it with a reason", m)
	}
}
