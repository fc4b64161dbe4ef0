// Package driver runs Speedlight's analyzers, speaking the protocols
// the go command expects of a vet tool. It is a standard-library
// replacement for golang.org/x/tools/go/analysis/unitchecker plus a
// small `go list`-based loader for standalone invocations.
//
// A single binary built from cmd/speedlightvet serves four call shapes:
//
//	speedlightvet -V=full          # build-cache tool ID (go vet handshake)
//	speedlightvet -flags           # supported analyzer flags (go vet handshake)
//	speedlightvet <unit>.cfg       # one compilation unit (go vet -vettool)
//	speedlightvet ./...            # standalone: load, check, report
package driver

import (
	"crypto/sha256"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"sort"
	"strings"

	"speedlight/internal/lint/analysis"
)

// Main dispatches on the invocation shape and exits with the
// appropriate status: 0 clean, 1 operational failure, 2 diagnostics.
func Main(analyzers ...*analysis.Analyzer) {
	progname := "speedlightvet"
	args := os.Args[1:]
	if len(args) == 1 && strings.HasPrefix(args[0], "-V") {
		printVersion(progname)
		os.Exit(0)
	}
	if len(args) == 1 && args[0] == "-flags" {
		// No analyzer exposes flags; an empty JSON list tells the go
		// command there is nothing to forward.
		fmt.Println("[]")
		os.Exit(0)
	}
	format := "text"
	rest := args[:0]
	for _, a := range args {
		if strings.HasPrefix(a, "-format=") {
			format = strings.TrimPrefix(a, "-format=")
			continue
		}
		rest = append(rest, a)
	}
	args = rest
	switch format {
	case "text", "github":
	default:
		fmt.Fprintf(os.Stderr, "%s: unknown -format %q (want text or github)\n", progname, format)
		os.Exit(1)
	}
	if len(args) == 0 {
		fmt.Fprintf(os.Stderr, "usage: %s [-V=full | -flags | -format=text|github] [unit.cfg | packages...]\n", progname)
		os.Exit(1)
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		diags, err := runUnit(args[0], analyzers)
		exitWith(diags, err)
	}
	diags, err := runStandalone(args, analyzers, format)
	exitWith(diags, err)
}

func exitWith(diags int, err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if diags > 0 {
		os.Exit(2)
	}
	os.Exit(0)
}

// printVersion emulates the `-V=full` contract from cmd/go's buildid
// check: the line must read "<name> version devel ... buildID=<hex>"
// so the go command can fingerprint the tool for vet result caching.
func printVersion(progname string) {
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", progname, h.Sum(nil))
}

// Finding is one diagnostic tagged with the analyzer that produced it,
// so GitHub annotation titles can name the rule.
type Finding struct {
	Analyzer string
	analysis.Diagnostic
}

// RunAnalyzers applies every analyzer to one checked package and
// returns the findings sorted by position.
func RunAnalyzers(cp *CheckedPackage, analyzers []*analysis.Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      cp.Fset,
			Files:     cp.Files,
			Pkg:       cp.Pkg,
			TypesInfo: cp.Info,
			Report: func(d analysis.Diagnostic) {
				findings = append(findings, Finding{Analyzer: a.Name, Diagnostic: d})
			},
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}
	sort.Slice(findings, func(i, j int) bool { return findings[i].Pos < findings[j].Pos })
	return findings, nil
}

func printDiagnostics(fset *token.FileSet, findings []Finding) {
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "%s: %s\n", fset.Position(f.Pos), f.Message)
	}
}

// runStandalone loads the named package patterns through the go
// command — test variants included, so _test.go files are held to the
// same discipline — and checks every non-dependency package.
func runStandalone(patterns []string, analyzers []*analysis.Analyzer, format string) (int, error) {
	listed, err := GoList(append([]string{"-test"}, patterns...))
	if err != nil {
		return 0, err
	}
	packageFile := make(map[string]string)
	hasVariant := make(map[string]bool) // base paths covered by a test variant
	for _, p := range listed {
		if p.Export != "" {
			packageFile[p.ImportPath] = p.Export
		}
		if !p.DepOnly && p.ForTest != "" && !strings.Contains(p.ImportPath, "_test [") {
			hasVariant[p.ForTest] = true
		}
	}
	fset := token.NewFileSet()
	var all []Finding
	for _, p := range listed {
		if p.DepOnly || p.Standard {
			continue
		}
		if strings.HasSuffix(p.ImportPath, ".test") {
			continue // generated test main
		}
		if p.ForTest == "" && hasVariant[p.ImportPath] {
			continue // the internal test variant analyzes a superset
		}
		if p.Error != nil {
			return 0, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		if len(p.CgoFiles) > 0 {
			continue // cgo units need the compiler's generated sources
		}
		var files []string
		for _, name := range p.GoFiles {
			files = append(files, absJoin(p.Dir, name))
		}
		if len(files) == 0 {
			continue
		}
		imp := ExportImporter(fset, p.ImportMap, packageFile)
		cp, err := TypeCheck(fset, p.ImportPath, files, imp, "")
		if err != nil {
			return 0, err
		}
		findings, err := RunAnalyzers(cp, analyzers)
		if err != nil {
			return 0, err
		}
		all = append(all, findings...)
	}
	switch format {
	case "github":
		printGitHub(fset, all)
	default:
		printDiagnostics(fset, all)
	}
	return len(all), nil
}

// ParseFile parses one file with comments (analyzers read directives).
func ParseFile(fset *token.FileSet, name string) (*ast.File, error) {
	return parser.ParseFile(fset, name, nil, parser.ParseComments)
}
