// Package stagedfree defines an Analyzer enforcing the release obligation
// of the page store's commit unit. A Batch that frees extents keeps them
// readable after it commits — concurrent readers of the previous version
// table still name them — until the writer calls Release, after
// publishing the table that no longer does. A path that returns without
// releasing leaks the freed extents in the backend's resident extent table
// until restart (replay drops them), silently turning the free into lost
// space.
//
// The check is a must-release obligation over the flow walker: every
// b.Free(x) on a value of a type named Batch plants an obligation keyed by
// the batch expression, b.Release() discharges it, and any function exit
// (including implicit final returns and error returns, with deferred
// calls applied) still holding the obligation is a finding at the Free
// site. Releasing a batch that did not commit does nothing, so failure
// paths release too: `defer b.Release()` next to Begin covers every
// path. The walker unions facts at joins, so the obligation is reported
// unless EVERY non-panic path discharges it — the conservative direction
// for a leak check. Panic paths are exempt: the process is going down and
// replay rebuilds the extent table anyway.
package stagedfree

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"txmldb/internal/analysis"
	"txmldb/internal/analysis/flow"
)

var Analyzer = &analysis.Analyzer{
	Name: "stagedfree",
	Doc:  "every Batch.Free must reach the batch's Release on all non-panic paths, including error returns",
	Run:  run,
}

// targetSegments gates the check to the packages that free extents
// through a batch.
var targetSegments = map[string]bool{
	"store":     true,
	"core":      true,
	"shard":     true,
	"pagestore": true,
}

func run(pass *analysis.Pass) error {
	if !targetSegments[analysis.PathBase(pass.Pkg.Path())] {
		return nil
	}
	staged := 0
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			staged += check(pass, fd)
		}
	}
	pass.Notef("staged-sites=%d", staged)
	return nil
}

// batchMethod returns the method name and the receiver expression of a
// method call on a value whose (pointer-stripped) type is named Batch.
func batchMethod(pass *analysis.Pass, call *ast.CallExpr) (string, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	t := pass.TypesInfo.TypeOf(sel.X)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Batch" {
		return "", "", false
	}
	return sel.Sel.Name, types.ExprString(sel.X), true
}

func check(pass *analysis.Pass, fd *ast.FuncDecl) int {
	// leaks collects obligation positions still live at some exit; a map
	// dedupes the same Free reported from multiple exits.
	leaks := make(map[token.Pos]string)
	sites := 0
	flow.Walk(fd.Body, flow.Hooks{
		Call: func(st flow.Facts, call *ast.CallExpr) {
			name, batch, ok := batchMethod(pass, call)
			if !ok {
				return
			}
			switch name {
			case "Free":
				sites++
				if _, held := st["freed:"+batch]; !held {
					st["freed:"+batch] = call.Pos()
				}
			case "Release":
				delete(st, "freed:"+batch)
			}
		},
		Exit: func(st flow.Facts, at ast.Node) {
			for k, pos := range st {
				leaks[pos] = k
			}
		},
	})
	var positions []token.Pos
	for pos := range leaks {
		positions = append(positions, pos)
	}
	sort.Slice(positions, func(i, j int) bool { return positions[i] < positions[j] })
	for _, pos := range positions {
		pass.Reportf(pos,
			"Batch.Free not released on all paths: some return is missing %s.Release()",
			leaks[pos][len("freed:"):])
	}
	return sites
}
