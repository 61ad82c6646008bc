// Package goroleak defines an Analyzer enforcing goroutine lifecycle
// discipline in the engine packages: every go statement must be bound to
// something that bounds its life — a context (cancellation reaches it),
// or a completion registration (WaitGroup.Done, a close/send on a stop
// channel) that some other path in the package waits on. An unbound
// goroutine outlives Close/Shutdown: it races engine teardown, holds
// references that keep files and caches alive, and turns clean process
// exit into a flake.
//
// A go statement is accepted when any of the following holds:
//
//   - context-bound: the spawned function's signature takes a
//     context.Context, an argument of context type is passed, or (for a
//     function literal) the body references a context-typed variable —
//     cancellation is wired in;
//   - WaitGroup-bound: the spawned literal calls Done() on a
//     sync.WaitGroup that the enclosing function Wait()s on (local
//     fork/join), or on a WaitGroup field that some function in the
//     package Wait()s on (Close/Shutdown joins the worker);
//   - channel-bound: the spawned literal closes or sends on a channel
//     that the enclosing function receives from, or a channel field some
//     function in the package receives from (completion is observed);
//   - method spawn (go x.run()): the method's body closes or Done()s a
//     field that the declaring package waits on, resolved through the
//     call graph — a `go g.run()` whose body does `close(g.stopped)`,
//     with `<-g.stopped` in Close, is the canonical shape.
//
// The "somewhere in the package" half is deliberately name-based on the
// field (every instance shares the shutdown protocol its methods
// implement); the local half requires the wait in the same function.
package goroleak

import (
	"go/ast"
	"go/token"
	"go/types"

	"txmldb/internal/analysis"
	"txmldb/internal/analysis/load"
)

var Analyzer = &analysis.Analyzer{
	Name: "goroleak",
	Doc:  "every go statement in engine packages must be ctx-bound or register on a WaitGroup/stop channel that a Close/Shutdown path waits on",
	Run:  run,
}

// targetSegments are the packages whose goroutines must be
// lifecycle-bound.
var targetSegments = map[string]bool{
	"core":       true,
	"store":      true,
	"pagestore":  true,
	"shard":      true,
	"vcache":     true,
	"checkpoint": true,
	"parallel":   true,
	"server":     true,
	"txserved":   true,
}

func run(pass *analysis.Pass) error {
	if !targetSegments[analysis.PathBase(pass.Pkg.Path())] {
		return nil
	}
	c := &checker{
		pass:      pass,
		pkgAwaits: make(map[*load.Package]map[string]bool),
	}

	sites, flagged := 0, 0
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			local := awaitKeys(pass.TypesInfo, fd.Body, false)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				sites++
				if !c.bound(g, local) {
					flagged++
					pass.Reportf(g.Pos(),
						"goroutine is not bound to a context, or to a WaitGroup/stop channel that a shutdown path waits on")
				}
				return true
			})
		}
	}
	pass.Notef("go-sites=%d flagged=%d", sites, flagged)
	return nil
}

type checker struct {
	pass *analysis.Pass
	// pkgAwaits caches the field-scoped await keys per package (the
	// current one, plus any package a method spawn resolves into).
	pkgAwaits map[*load.Package]map[string]bool
}

// bound reports whether the go statement satisfies any binding rule.
// local is the await-key set of the enclosing function.
func (c *checker) bound(g *ast.GoStmt, local map[string]bool) bool {
	info := c.pass.TypesInfo
	call := g.Call

	// Rule 1: context-bound.
	for _, arg := range call.Args {
		if tv, ok := info.Types[arg]; ok && analysis.IsContextType(tv.Type) {
			return true
		}
	}
	if fn := calledFunc(info, call); fn != nil && hasContextParam(fn) {
		return true
	}

	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return c.literalBound(lit, local)
	}

	// Rule 4: method/function spawn — resolve the body through the call
	// graph and look for a completion signal on a field the declaring
	// package waits on.
	fn := calledFunc(info, call)
	if fn == nil {
		return false
	}
	node := c.pass.Program.Graph.Lookup(fn)
	if node == nil || node.Decl == nil || node.Decl.Body == nil || node.Pkg == nil {
		return false
	}
	signals := signalKeys(node.Pkg.TypesInfo, node.Decl.Body)
	awaited := c.awaitsOf(node.Pkg)
	for k := range signals {
		if awaited[k] {
			return true
		}
	}
	return false
}

// literalBound checks rules 1–3 for a spawned function literal.
func (c *checker) literalBound(lit *ast.FuncLit, local map[string]bool) bool {
	info := c.pass.TypesInfo
	ctxBound := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := info.Uses[id].(*types.Var); ok && analysis.IsContextType(v.Type()) {
			ctxBound = true
		}
		return !ctxBound
	})
	if ctxBound {
		return true
	}
	pkg := c.currentPackage()
	awaited := c.awaitsOf(pkg)
	for k := range signalKeys(info, lit.Body) {
		if local[k] || awaited[k] {
			return true
		}
	}
	return false
}

func (c *checker) currentPackage() *load.Package {
	for _, p := range c.pass.Program.Packages {
		if p.Pkg == c.pass.Pkg {
			return p
		}
	}
	return nil
}

// awaitsOf returns (cached) the field-scoped await keys of a package:
// every WaitGroup field Wait()ed on and channel field received from, in
// any of its functions.
func (c *checker) awaitsOf(pkg *load.Package) map[string]bool {
	if pkg == nil {
		return nil
	}
	if keys, ok := c.pkgAwaits[pkg]; ok {
		return keys
	}
	keys := make(map[string]bool)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			for k := range awaitKeys(pkg.TypesInfo, fd.Body, true) {
				keys[k] = true
			}
		}
	}
	c.pkgAwaits[pkg] = keys
	return keys
}

// awaitKeys collects the wait-side keys in a body: "wg:<name>" for
// WaitGroup.Wait receivers, "ch:<name>" for channel receives (unary <-
// and range). fieldsOnly restricts to shared (field or package-level)
// objects for the package-wide scan.
func awaitKeys(info *types.Info, body ast.Node, fieldsOnly bool) map[string]bool {
	keys := make(map[string]bool)
	add := func(kind string, e ast.Expr) {
		name, field := objKey(info, e)
		if name == "" || (fieldsOnly && !field) {
			return
		}
		keys[kind+":"+name] = true
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
				if tv, ok := info.Types[sel.X]; ok && isWaitGroup(tv.Type) {
					add("wg", sel.X)
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				add("ch", n.X)
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					add("ch", n.X)
				}
			}
		}
		return true
	})
	return keys
}

// signalKeys collects the completion-signal keys in a body: "wg:<name>"
// for WaitGroup.Done calls, "ch:<name>" for close() and channel sends.
func signalKeys(info *types.Info, body ast.Node) map[string]bool {
	keys := make(map[string]bool)
	add := func(kind string, e ast.Expr) {
		name, _ := objKey(info, e)
		if name != "" {
			keys[kind+":"+name] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				if tv, ok := info.Types[sel.X]; ok && isWaitGroup(tv.Type) {
					add("wg", sel.X)
				}
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
				add("ch", n.Args[0])
			}
		case *ast.SendStmt:
			add("ch", n.Chan)
		}
		return true
	})
	return keys
}

// objKey names the synchronization object behind an expression: field
// selectors and package-level variables key by name and are shared
// (field=true); locals key by name within their function (field=false).
func objKey(info *types.Info, e ast.Expr) (name string, field bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return e.Sel.Name, true
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return e.Name, true
		}
		return e.Name, false
	case *ast.CallExpr, *ast.IndexExpr:
		return "", false
	default:
		return "", false
	}
}

// calledFunc resolves the spawned callee to its function object, if the
// call is direct (identifier or selector, not a function value).
func calledFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

func hasContextParam(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if analysis.IsContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

func isWaitGroup(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}
