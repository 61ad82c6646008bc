// Package determinism keeps the operator packages reproducible.
//
// The paper's operator semantics (Nørvåg §6–7) are deterministic: the
// same query over the same version history must produce the same rows in
// the same order, which is also what the differential oracle
// (internal/oracle) and the bench gate rely on. Three things silently
// break that inside internal/model, internal/pattern, internal/plan,
// internal/diff:
//
//   - time.Now (wall-clock leaking into results),
//   - math/rand (any import of it),
//   - ranging over a map while appending to an outer slice or writing to
//     an io.Writer, without a later sort of that output in the same
//     function — Go randomizes map iteration order per run.
//
// The map-range rule allowlists the collect-then-sort idiom: appends
// inside the range are fine when the destination slice is passed to a
// sort.*/slices.* call after the loop.
package determinism

import (
	"go/ast"
	"go/types"
	"strconv"

	"txmldb/internal/analysis"
)

// Analyzer flags nondeterminism sources in operator packages.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "in model/pattern/plan/diff: forbid time.Now, math/rand, " +
		"and map-range output into ordered sinks without a following sort",
	Run: run,
}

var targetSegments = map[string]bool{
	"model": true, "pattern": true, "plan": true, "diff": true,
}

func run(pass *analysis.Pass) error {
	if !targetSegments[analysis.PathBase(pass.Pkg.Path())] {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			if path, err := strconv.Unquote(imp.Path.Value); err == nil {
				if path == "math/rand" || path == "math/rand/v2" {
					pass.Reportf(imp.Pos(), "import of %s in a deterministic operator package", path)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if pass.PkgFunc(call, "time", "Now") {
					pass.Reportf(call.Pos(), "time.Now in a deterministic operator package: results must not depend on wall clock")
				}
				return true
			}
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			checkMapRanges(pass, fd.Body)
			return true
		})
	}
	return nil
}

// checkMapRanges finds range-over-map loops feeding ordered sinks.
func checkMapRanges(pass *analysis.Pass, body *ast.BlockStmt) {
	var ranges []*ast.RangeStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if rs, ok := n.(*ast.RangeStmt); ok {
			if t := pass.TypesInfo.TypeOf(rs.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					ranges = append(ranges, rs)
				}
			}
		}
		return true
	})
	for _, rs := range ranges {
		checkMapRange(pass, body, rs)
	}
}

func checkMapRange(pass *analysis.Pass, fnBody *ast.BlockStmt, rs *ast.RangeStmt) {
	// Writer sinks are ordered the moment bytes leave: no sort can fix
	// them, so they are flagged directly.
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isWriterSink(pass, call) {
			pass.Reportf(call.Pos(), "write to an io.Writer inside range over map: emission order is randomized per run")
		}
		return true
	})

	// Appends to slices declared outside the loop are fine only if the
	// slice is sorted later in the function.
	sinks := make(map[types.Object]ast.Expr)
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				continue
			}
			if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
				continue
			} else if pass.TypesInfo.Uses[id] != types.Universe.Lookup("append") {
				continue
			}
			if i >= len(as.Lhs) {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.TypesInfo.ObjectOf(id)
			if obj == nil || obj.Pos() > rs.Pos() {
				continue // declared inside the loop: not an outer sink
			}
			sinks[obj] = as.Lhs[i]
		}
		return true
	})
	for obj, at := range sinks {
		if !sortedAfter(pass, fnBody, rs, obj) {
			pass.Reportf(at.Pos(), "append to %s inside range over map without a later sort: output order is randomized per run", obj.Name())
		}
	}
}

// isWriterSink reports calls that emit ordered output: methods named
// Write*/ on io.Writer-ish receivers, or fmt.Fprint* with a writer arg.
func isWriterSink(pass *analysis.Pass, call *ast.CallExpr) bool {
	for _, name := range []string{"Fprint", "Fprintf", "Fprintln"} {
		if pass.PkgFunc(call, "fmt", name) {
			return true
		}
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Write", "WriteString", "WriteByte", "WriteRune":
	default:
		return false
	}
	s := pass.TypesInfo.Selections[sel]
	return s != nil && s.Kind() == types.MethodVal
}

// sortedAfter reports whether obj is passed to a sort.* or slices.* call
// positioned after the range statement in the function body.
func sortedAfter(pass *analysis.Pass, fnBody *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			mentions := false
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
					mentions = true
				}
				return true
			})
			if mentions {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
