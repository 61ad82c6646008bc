// Package callgraph builds a whole-program static call graph over the
// packages txvet loaded, so analyzers can reason interprocedurally —
// "is this function reachable from QueryContext?", "which locks does
// this callee acquire?" — instead of seeing one function body at a time.
//
// Nodes are functions and methods, keyed by their types.Func.FullName().
// The string key matters: txvet's loader type-checks each target package
// from source while its dependencies come from gc export data, so the
// *types.Func for (*core.DB).Versions seen from internal/plan is a
// different object than the one produced by checking internal/core
// itself. FullName ("(*txmldb/internal/core.DB).Versions") is identical
// across those universes and makes the cross-package edges line up.
//
// Edges come from three sources:
//
//   - static calls: a call whose Fun resolves (through go/types Uses) to
//     a declared function or a method on a concrete type;
//   - method values through concrete receivers, same resolution;
//   - interface calls, devirtualized: a call through an interface method
//     adds one edge per named type in the loaded program whose method
//     set implements that interface — bounded by a per-site limit, so a
//     fat interface with dozens of implementations degrades to "edges
//     unresolved" (counted in Stats) instead of an edge explosion.
//
// Function literals are attributed to their enclosing declaration: a
// call made inside a closure (including one launched by a go statement)
// is an edge out of the enclosing function. That approximation is sound
// for reachability — the literal cannot run unless its encloser was
// reached — and keeps the graph finite and positional.
//
// Calls through function-typed variables, fields, and parameters are not
// resolved (counted in Stats.UnresolvedSites); like the rest of txvet
// the graph trades whole-program soundness for a dependency-free build.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"txmldb/internal/analysis/load"
)

// DefaultDevirtLimit bounds how many concrete implementations one
// interface call site may fan out to before the site is left unresolved.
const DefaultDevirtLimit = 16

// Node is one function or method in the program.
type Node struct {
	// Key is the stable identity: types.Func.FullName().
	Key string
	// Fn is the function object from the package that declared it (nil
	// until the declaring package is seen; interface methods keep the
	// object from their first use).
	Fn *types.Func
	// Decl is the declaration body, nil for functions declared outside
	// the loaded packages (stdlib, export-data-only deps) and for
	// interface methods.
	Decl *ast.FuncDecl
	// Pkg is the loaded package containing Decl, nil when Decl is.
	Pkg *load.Package
	// Out and In are call edges, deterministically ordered by Build.
	Out []*Edge
	In  []*Edge
}

// Edge is one resolved call site.
type Edge struct {
	Caller, Callee *Node
	// Site is the call position in the caller.
	Site token.Pos
	// Devirtualized marks edges added by interface-implementation
	// matching rather than direct resolution.
	Devirtualized bool
}

// Stats summarizes graph construction for the txvet summary table.
type Stats struct {
	Funcs           int // nodes with a declaration in the loaded packages
	StaticEdges     int
	DevirtEdges     int
	IfaceSites      int // interface call sites seen
	UnresolvedSites int // call sites the builder could not resolve
}

// Graph is the whole-program call graph.
type Graph struct {
	nodes map[string]*Node
	Stats Stats
}

// Build constructs the call graph for the loaded packages. devirtLimit
// bounds interface devirtualization per call site; <= 0 means
// DefaultDevirtLimit.
func Build(pkgs []*load.Package, devirtLimit int) *Graph {
	if devirtLimit <= 0 {
		devirtLimit = DefaultDevirtLimit
	}
	g := &Graph{nodes: make(map[string]*Node)}

	// Pass 1: index every declaration so cross-package edges can land on
	// the declaring node, and collect the named types for devirtualization.
	var impls []types.Type // named types (by value) declared in the program
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := g.node(fn)
				n.Decl = fd
				n.Pkg = pkg
			}
		}
		scope := pkg.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if _, ok := tn.Type().(*types.Named); ok {
				impls = append(impls, tn.Type())
			}
		}
	}

	// Pass 2: edges.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				caller, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				from := g.node(caller)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					g.addCallEdges(pkg, from, call, impls, devirtLimit)
					return true
				})
			}
		}
	}

	// Deterministic edge order: by caller key, then site, then callee key.
	for _, n := range g.nodes {
		sortEdges(n.Out)
		sortEdges(n.In)
	}
	for _, n := range g.nodes {
		if n.Decl != nil {
			g.Stats.Funcs++
		}
	}
	return g
}

func sortEdges(es []*Edge) {
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if a.Caller.Key != b.Caller.Key {
			return a.Caller.Key < b.Caller.Key
		}
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		return a.Callee.Key < b.Callee.Key
	})
}

// node interns the graph node for fn.
func (g *Graph) node(fn *types.Func) *Node {
	key := fn.FullName()
	n, ok := g.nodes[key]
	if !ok {
		n = &Node{Key: key, Fn: fn}
		g.nodes[key] = n
	}
	if n.Fn == nil {
		n.Fn = fn
	}
	return n
}

// Lookup returns the node for fn, or nil if it never appeared.
func (g *Graph) Lookup(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return g.nodes[fn.FullName()]
}

// LookupKey returns the node with the given FullName key, or nil.
func (g *Graph) LookupKey(key string) *Node { return g.nodes[key] }

// Nodes returns every node, sorted by key.
func (g *Graph) Nodes() []*Node {
	out := make([]*Node, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// CalleesAt returns the callee nodes of the edges leaving caller at the
// given call position (several for a devirtualized interface call).
func (g *Graph) CalleesAt(caller *Node, site token.Pos) []*Node {
	var out []*Node
	for _, e := range caller.Out {
		if e.Site == site {
			out = append(out, e.Callee)
		}
	}
	return out
}

// addCallEdges resolves one call expression into graph edges.
func (g *Graph) addCallEdges(pkg *load.Package, from *Node, call *ast.CallExpr, impls []types.Type, devirtLimit int) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.TypesInfo.Uses[fun].(*types.Func); ok {
			g.addEdge(from, g.node(fn), call.Lparen, false)
			return
		}
		if _, ok := pkg.TypesInfo.Uses[fun].(*types.Builtin); ok {
			return
		}
		if tv, ok := pkg.TypesInfo.Types[fun]; ok && tv.IsType() {
			return // conversion
		}
		g.Stats.UnresolvedSites++
	case *ast.SelectorExpr:
		obj := pkg.TypesInfo.Uses[fun.Sel]
		fn, ok := obj.(*types.Func)
		if !ok {
			if tv, ok := pkg.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
				return // conversion through a qualified type name
			}
			g.Stats.UnresolvedSites++
			return
		}
		sel := pkg.TypesInfo.Selections[fun]
		if sel == nil {
			// Package-qualified function: pkg.F(...).
			g.addEdge(from, g.node(fn), call.Lparen, false)
			return
		}
		recv := sel.Recv()
		if isInterface(recv) {
			g.Stats.IfaceSites++
			g.addEdge(from, g.node(fn), call.Lparen, false) // the interface method node
			g.devirtualize(from, call.Lparen, recv, fn.Name(), impls, devirtLimit)
			return
		}
		g.addEdge(from, g.node(fn), call.Lparen, false)
	default:
		if tv, ok := pkg.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
			return // conversion
		}
		// Calls through function values (fields, parameters, results).
		g.Stats.UnresolvedSites++
	}
}

// devirtualize adds edges from an interface call site to every loaded
// concrete method implementing it, up to limit candidates.
func (g *Graph) devirtualize(from *Node, site token.Pos, recv types.Type, name string, impls []types.Type, limit int) {
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return
	}
	var targets []*types.Func
	for _, t := range impls {
		if _, ok := t.Underlying().(*types.Interface); ok {
			continue // interface-to-interface: the method node covers it
		}
		if !implements(t, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(t), true, pkgOf(t), name)
		m, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		targets = append(targets, m)
		if len(targets) > limit {
			// Too wide: keep the interface-method edge only.
			g.Stats.UnresolvedSites++
			return
		}
	}
	for _, m := range targets {
		g.addEdge(from, g.node(m), site, true)
		g.Stats.DevirtEdges++
	}
}

// implements reports whether t or *t implements iface. Like node keys,
// it must see through the loader's two type universes: an interface
// declared in a package checked from source and mentioning that package's
// own types (the epochpin fixture's plan.Engine takes plan.Key) is
// implemented by types whose packages saw it through export data, so the
// method signatures are compared by their package-path-qualified strings
// whenever go/types' identity check says no.
func implements(t types.Type, iface *types.Interface) bool {
	pt := types.NewPointer(t)
	if types.Implements(t, iface) || types.Implements(pt, iface) {
		return true
	}
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		obj, _, _ := types.LookupFieldOrMethod(pt, true, m.Pkg(), m.Name())
		fn, ok := obj.(*types.Func)
		if !ok || sigKey(fn.Type()) != sigKey(m.Type()) {
			return false
		}
	}
	return true
}

// sigKey renders a method signature's parameter and result types, by
// package path and without names, identically across type universes.
func sigKey(t types.Type) string {
	sig := t.(*types.Signature)
	qual := func(p *types.Package) string { return p.Path() }
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), qual))
			b.WriteByte(',')
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

func pkgOf(t types.Type) *types.Package {
	if n, ok := t.(*types.Named); ok && n.Obj() != nil {
		return n.Obj().Pkg()
	}
	return nil
}

func isInterface(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

func (g *Graph) addEdge(from, to *Node, site token.Pos, devirt bool) {
	for _, e := range from.Out {
		if e.Callee == to && e.Site == site {
			return
		}
	}
	e := &Edge{Caller: from, Callee: to, Site: site, Devirtualized: devirt}
	from.Out = append(from.Out, e)
	to.In = append(to.In, e)
	if !devirt {
		g.Stats.StaticEdges++
	}
}

// Reachable walks the graph forward from roots and returns, for every
// reached node, the edge through which it was first discovered (nil for
// the roots themselves). The parent chain is the witness path analyzers
// print in diagnostics.
func (g *Graph) Reachable(roots []*Node) map[*Node]*Edge {
	seen := make(map[*Node]*Edge)
	queue := make([]*Node, 0, len(roots))
	for _, r := range roots {
		if r == nil {
			continue
		}
		if _, ok := seen[r]; ok {
			continue
		}
		seen[r] = nil
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			if _, ok := seen[e.Callee]; ok {
				continue
			}
			seen[e.Callee] = e
			queue = append(queue, e.Callee)
		}
	}
	return seen
}

// PathTo renders the discovery chain from a root to n as "a → b → c",
// using short function names. parents is a Reachable result.
func PathTo(parents map[*Node]*Edge, n *Node) string {
	var names []string
	for cur := n; cur != nil; {
		names = append(names, cur.Fn.Name())
		e, ok := parents[cur]
		if !ok || e == nil {
			break
		}
		cur = e.Caller
	}
	// Reverse into root-first order.
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	out := ""
	for i, s := range names {
		if i > 0 {
			out += " → "
		}
		out += s
	}
	return out
}
