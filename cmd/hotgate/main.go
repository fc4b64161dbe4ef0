// Command hotgate cross-checks the zero-allocation contract's two
// halves: every function marked //speedlight:hotpath must be named by
// a //speedlight:allocgate annotation on an allocation-gated test or
// benchmark, and every allocgate name must still refer to a hotpath
// function.
//
// The hotpath directive is a promise ("this path allocates nothing in
// steady state") that the hotalloc analyzer checks structurally; the
// allocgate annotation records which AllocsPerRun test or 0-alloc
// benchmark proves the promise empirically. hotgate fails CI when a
// hotpath function has no empirical gate, or when an annotation has
// gone stale after a rename.
//
// Usage:
//
//	hotgate [root]
//
// Names are canonical "pkg.Recv.Func" (methods) or "pkg.Func"
// (functions), matching the directive docs in DESIGN.md §9. The walk
// is purely syntactic — no type checking — so it runs in milliseconds
// and sees every build-tagged file.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type site struct {
	pos  token.Position
	name string // canonical function name (hotpath) or gate name (allocgate)
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	hot := map[string]token.Position{} // hotpath fn -> decl position
	gated := map[string][]string{}     // hotpath fn -> gate test names
	var annotations []site             // every allocgate name, for staleness
	misplaced := []site{}              // allocgate outside a Test/Benchmark

	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case "testdata", ".git", "bin", "vendor":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		isTest := strings.HasSuffix(path, "_test.go")
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				line := strings.TrimPrefix(c.Text, "//")
				fields := strings.Fields(line)
				if len(fields) == 0 {
					continue
				}
				switch fields[0] {
				case "speedlight:hotpath":
					if !isTest {
						hot[canonical(f.Name.Name, fd)] = fset.Position(fd.Pos())
					}
				case "speedlight:allocgate":
					gate := f.Name.Name + "." + fd.Name.Name
					if !isTest || !(strings.HasPrefix(fd.Name.Name, "Test") ||
						strings.HasPrefix(fd.Name.Name, "Benchmark")) {
						misplaced = append(misplaced, site{fset.Position(c.Pos()), gate})
						continue
					}
					for _, name := range fields[1:] {
						gated[name] = append(gated[name], gate)
						annotations = append(annotations, site{fset.Position(c.Pos()), name})
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	bad := 0
	var uncovered []site
	for name, pos := range hot {
		if len(gated[name]) == 0 {
			uncovered = append(uncovered, site{pos, name})
		}
	}
	sort.Slice(uncovered, func(i, j int) bool { return uncovered[i].name < uncovered[j].name })
	for _, u := range uncovered {
		fmt.Printf("%s: //speedlight:hotpath %s has no allocation gate: annotate the AllocsPerRun test or 0-alloc benchmark that exercises it with //speedlight:allocgate %s\n",
			u.pos, u.name, u.name)
		bad++
	}
	for _, a := range annotations {
		if _, ok := hot[a.name]; !ok {
			fmt.Printf("%s: stale //speedlight:allocgate name %s: no such //speedlight:hotpath function (renamed or unmarked?)\n",
				a.pos, a.name)
			bad++
		}
	}
	for _, m := range misplaced {
		fmt.Printf("%s: //speedlight:allocgate on %s: the annotation belongs on a Test or Benchmark function in a _test.go file\n",
			m.pos, m.name)
		bad++
	}
	if bad > 0 {
		os.Exit(1)
	}
	gates := map[string]bool{}
	for _, names := range gated {
		for _, g := range names {
			gates[g] = true
		}
	}
	fmt.Printf("hotgate: %d hotpath functions covered by %d gates\n", len(hot), len(gates))
}

// canonical builds "pkg.Recv.Func" for methods and "pkg.Func" for
// plain functions.
func canonical(pkg string, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkg + "." + fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	if ix, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = ix.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return pkg + "." + id.Name + "." + fd.Name.Name
	}
	return pkg + "." + fd.Name.Name
}
