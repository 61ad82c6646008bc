// Package cachealias flags mutation of trees obtained from the shared
// version cache or from core reconstruction entry points without an
// intervening deep clone.
//
// PR 3's vcache keeps materialized VersionTrees resident and shared; its
// immutability discipline is that any tree crossing the cache boundary is
// deep-cloned before mutation, because an in-place edit of a shared tree
// corrupts every future cache hit for that version. The store's published
// current version (store.Store.Published) is shared the same way. The
// analyzer taints variables bound from vcache.Cache.Get, DB.Reconstruct*
// and Store.Published results,
// propagates the taint through simple assignments (r := vt.Root), clears
// it on Clone()/DeepClone(), and reports writes that reach shared state
// through a tainted base — i.e. writes whose access path crosses a
// pointer, slice, or map after the tainted variable. Writes to value
// fields of a tainted struct variable (vt.Info = ...) mutate only the
// local copy and are allowed.
//
// The check is per-function and flow-approximate (statements in source
// order); it is a convention guard, not an escape analysis.
package cachealias

import (
	"go/ast"
	"go/types"
	"strings"

	"txmldb/internal/analysis"
)

// Analyzer flags writes to cache-shared trees without a Clone.
var Analyzer = &analysis.Analyzer{
	Name: "cachealias",
	Doc: "flag mutations of trees obtained from vcache.Cache.Get, core " +
		"DB.Reconstruct* or store Store.Published without an intervening Clone/DeepClone",
	Run: run,
}

func run(pass *analysis.Pass) error {
	// The cache's own internals legitimately touch resident trees.
	if pass.Pkg.Path() == "txmldb/internal/vcache" {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkFunc(pass, n.Body)
				}
				return false
			case *ast.FuncLit:
				checkFunc(pass, n.Body)
				return false
			}
			return true
		})
	}
	return nil
}

// checkFunc runs the taint walk over one function body.
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	tainted := make(map[types.Object]string) // var -> source description
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // literals get their own walk from run
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		handleAssign(pass, as, tainted)
		return true
	})
}

func handleAssign(pass *analysis.Pass, as *ast.AssignStmt, tainted map[types.Object]string) {
	// Writes through tainted bases are checked first, so `vt.Root.Value =`
	// is reported even when the RHS also mentions vt.
	for _, lhs := range as.Lhs {
		if obj, src, shared := taintedWrite(pass, lhs, tainted); shared {
			pass.Reportf(lhs.Pos(), "write through %s mutates a tree shared with %s; deep-clone before mutating",
				obj.Name(), src)
		}
	}

	// Taint bookkeeping for this assignment.
	if len(as.Rhs) == 1 {
		if call, ok := as.Rhs[0].(*ast.CallExpr); ok {
			if src, ok := taintSource(pass, call); ok {
				// v, err := cache.Get(...): the tree is result 0.
				if id := lhsIdent(as.Lhs[0]); id != nil {
					if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
						tainted[obj] = src
					}
				}
				return
			}
			if isCloneCall(call) {
				// v = shared.Clone(): the result is owned.
				for _, lhs := range as.Lhs {
					if id := lhsIdent(lhs); id != nil {
						if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
							delete(tainted, obj)
						}
					}
				}
				return
			}
		}
	}
	// r := vt.Root and friends: aliasing a tainted value taints the alias;
	// rebinding a tainted variable from an untainted source clears it.
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		id := lhsIdent(lhs)
		if id == nil {
			continue
		}
		obj := pass.TypesInfo.ObjectOf(id)
		if obj == nil {
			continue
		}
		if src, ok := mentionsTainted(pass, as.Rhs[i], tainted); ok {
			tainted[obj] = src
		} else {
			delete(tainted, obj)
		}
	}
}

// taintedWrite reports whether lhs writes through a tainted variable via
// at least one pointer/slice/map hop (shared memory, not a local copy).
func taintedWrite(pass *analysis.Pass, lhs ast.Expr, tainted map[types.Object]string) (types.Object, string, bool) {
	crossesShared := false
	e := lhs
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if isSharedType(pass.TypesInfo.TypeOf(x.X)) {
				crossesShared = true
			}
			e = x.X
		case *ast.IndexExpr:
			if isSharedType(pass.TypesInfo.TypeOf(x.X)) {
				crossesShared = true
			}
			e = x.X
		case *ast.StarExpr:
			crossesShared = true
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			obj := pass.TypesInfo.ObjectOf(x)
			if obj == nil {
				return nil, "", false
			}
			src, ok := tainted[obj]
			if !ok || !crossesShared {
				// Untainted base, plain rebinding (`vt = ...`), or a write
				// to a value field of the local copy (`vt.Info = ...`).
				return nil, "", false
			}
			return obj, src, true
		default:
			return nil, "", false
		}
	}
}

// isSharedType reports whether writes through t reach shared memory.
func isSharedType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}

// taintSource recognizes calls whose results alias cache-resident trees.
func taintSource(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	s := pass.TypesInfo.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return "", false
	}
	recv := s.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false
	}
	pkgPath, typeName, method := named.Obj().Pkg().Path(), named.Obj().Name(), sel.Sel.Name
	switch {
	case strings.HasSuffix(pkgPath, "/vcache") && typeName == "Cache" && method == "Get":
		return "vcache.Cache.Get", true
	case strings.HasSuffix(pkgPath, "/core") && typeName == "DB" && strings.HasPrefix(method, "Reconstruct"):
		return "core.DB." + method, true
	case strings.HasSuffix(pkgPath, "/store") && typeName == "Store" && method == "Published":
		return "store.Store.Published", true
	}
	return "", false
}

// isCloneCall recognizes x.Clone() / x.DeepClone().
func isCloneCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	return sel.Sel.Name == "Clone" || sel.Sel.Name == "DeepClone"
}

// mentionsTainted reports whether expr reads any tainted variable, unless
// the read is wrapped in a Clone call (which launders ownership).
func mentionsTainted(pass *analysis.Pass, expr ast.Expr, tainted map[types.Object]string) (string, bool) {
	if call, ok := expr.(*ast.CallExpr); ok && isCloneCall(call) {
		return "", false
	}
	var src string
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isCloneCall(call) {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
			if s, ok := tainted[obj]; ok {
				src, found = s, true
			}
		}
		return true
	})
	return src, found
}

// lhsIdent unwraps a plain identifier assignment target.
func lhsIdent(e ast.Expr) *ast.Ident {
	if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
		return id
	}
	return nil
}
