// Package locksend flags blocking operations performed while holding a
// sync mutex in the data-plane-facing packages.
//
// The paper's feasibility argument (§5) is that per-packet snapshot
// work fits a switch pipeline: bounded, non-blocking steps. The Go
// model of that discipline is "never block while holding a lock" — a
// channel send, network write, or sleep under a mutex can stall every
// packet behind it and, in live mode, deadlock against the reader
// goroutine. locksend performs an intraprocedural scan of dataplane,
// live, and sink: between a Lock/RLock and its Unlock (including
// deferred unlocks, which hold to function end) it flags channel sends,
// selects without a default, net reads/writes, and time.Sleep.
package locksend

import (
	"go/ast"
	"go/types"
	"strings"

	"speedlight/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "locksend",
	Doc: "flag channel sends, net I/O, and sleeps while holding a sync.Mutex/RWMutex " +
		"in dataplane, live, and sink (non-blocking data-plane discipline)",
	Run: run,
}

var scoped = map[string]bool{
	"dataplane": true,
	"live":      true,
	"sink":      true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !scoped[analysis.PkgScope(pass.Pkg.Path())] {
		return nil, nil
	}
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file) {
			continue
		}
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				scanFunc(pass, fd.Body)
			}
		}
	}
	return nil, nil
}

// scanFunc walks one function body in source order, tracking how many
// sync locks are held. Function literals get a fresh scan: they run on
// their own goroutine's schedule, not under the enclosing critical
// section at definition time.
func scanFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	held := 0
	// Sends in a select's comm clauses are governed by the select
	// (flagged there if it has no default), not as bare sends.
	commSends := make(map[*ast.SendStmt]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			scanFunc(pass, n.Body)
			return false
		case *ast.DeferStmt:
			// A deferred unlock keeps the lock held to function end, so
			// the counter must not see the Unlock call itself.
			if kind := syncLockKind(pass.TypesInfo, n.Call); kind == lockRelease {
				return false
			}
			return true
		case *ast.CallExpr:
			switch syncLockKind(pass.TypesInfo, n) {
			case lockAcquire:
				held++
			case lockRelease:
				if held > 0 {
					held--
				}
			}
			if held > 0 {
				checkBlockingCall(pass, n)
			}
		case *ast.SendStmt:
			if held > 0 && !commSends[n] {
				pass.Reportf(n.Arrow,
					"channel send while holding a sync lock: sends can block indefinitely; buffer outside the critical section")
			}
		case *ast.SelectStmt:
			for _, clause := range n.Body.List {
				if c, ok := clause.(*ast.CommClause); ok {
					if send, ok := c.Comm.(*ast.SendStmt); ok {
						commSends[send] = true
					}
				}
			}
			if held > 0 && !hasDefault(n) {
				pass.Reportf(n.Select,
					"select without default while holding a sync lock: this blocks the critical section")
			}
		}
		return true
	})
}

type lockKind int

const (
	notLock lockKind = iota
	lockAcquire
	lockRelease
)

// syncLockKind classifies a call as a sync package Lock/RLock,
// Unlock/RUnlock, or neither.
func syncLockKind(info *types.Info, call *ast.CallExpr) lockKind {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return notLock
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return notLock
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return lockAcquire
	case "Unlock", "RUnlock":
		return lockRelease
	}
	return notLock
}

// checkBlockingCall flags calls that can block: net connection
// reads/writes and time.Sleep.
func checkBlockingCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "net":
		if strings.HasPrefix(fn.Name(), "Write") || strings.HasPrefix(fn.Name(), "Read") {
			pass.Reportf(call.Pos(),
				"net %s while holding a sync lock: network I/O can stall the critical section",
				fn.Name())
		}
	case "time":
		if fn.Name() == "Sleep" {
			pass.Reportf(call.Pos(),
				"time.Sleep while holding a sync lock: sleeping in a critical section stalls the data plane")
		}
	}
}

func hasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if c, ok := clause.(*ast.CommClause); ok && c.Comm == nil {
			return true
		}
	}
	return false
}
