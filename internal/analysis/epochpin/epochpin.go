// Package epochpin defines an Analyzer enforcing the epoch-pinned read
// discipline from DESIGN.md §3j: every version-list read on a query path
// must go through the context-clamping API so a query observes one
// consistent snapshot.
//
// QueryContext pins the database epoch into the context; from that point
// on, version selection must use VersionsContext (or a pinned lister
// obtained from it), which clamps the returned versions to the pinned
// epoch. A direct Versions() call on such a path reads the live,
// unclamped version list — a version published by a concurrent committer
// mid-query becomes visible to some operators and not others, which is
// exactly the snapshot-consistency violation the temporal operators'
// correctness arguments exclude.
//
// The analyzer is interprocedural: it computes the set of functions
// reachable from the pinned-read roots — every function named
// QueryContext, plus the plan package's exported Run entry points — over
// the whole-program call graph (static calls plus bounded interface
// devirtualization, so a call through plan.Engine reaches the concrete
// engine methods). Any call to a method named Versions, declared in one
// of the version-owning packages (core, store, plan, shard, vcache),
// made from a reachable function is a finding; the diagnostic carries
// the call-graph witness path from the root so the report is actionable
// without re-deriving the reachability by hand.
//
// Functions that ARE the version-listing API — those named Versions or
// VersionsContext — are exempt as callers: the unpinned compatibility
// shim necessarily calls the underlying list, and VersionsContext reads
// the live list before clamping it.
package epochpin

import (
	"go/types"
	"sort"
	"strings"

	"txmldb/internal/analysis"
	"txmldb/internal/analysis/callgraph"
)

var Analyzer = &analysis.Analyzer{
	Name:       "epochpin",
	Doc:        "flags unclamped Versions() calls on paths reachable from QueryContext/plan execution; pinned query paths must use VersionsContext (DESIGN.md §3j)",
	RunProgram: run,
}

// calleePkgs are the package basenames whose Versions methods constitute
// an unclamped version-list read.
var calleePkgs = map[string]bool{
	"core":   true,
	"store":  true,
	"plan":   true,
	"shard":  true,
	"vcache": true,
}

// exemptCallers are function names allowed to call Versions: the
// version-listing API itself.
var exemptCallers = map[string]bool{
	"Versions":        true,
	"VersionsContext": true,
}

func run(pass *analysis.Pass) error {
	g := pass.Program.Graph

	// Roots: every QueryContext method, plus plan's exported entry points
	// (RunContext pins via the engine's QueryContext when available, but
	// the executor below it must still be pin-clean).
	var roots []*callgraph.Node
	for _, n := range g.Nodes() {
		if n.Decl == nil || n.Fn == nil {
			continue
		}
		name := n.Fn.Name()
		if name == "QueryContext" {
			roots = append(roots, n)
			continue
		}
		if pkg := n.Fn.Pkg(); pkg != nil && analysis.PathBase(pkg.Path()) == "plan" &&
			strings.HasPrefix(name, "Run") && n.Fn.Exported() {
			roots = append(roots, n)
		}
	}

	parents := g.Reachable(roots)

	flagged := 0
	type siteKey struct {
		caller *callgraph.Node
		site   int
	}
	seen := make(map[siteKey]bool)
	var reached []*callgraph.Node
	for n := range parents {
		reached = append(reached, n)
	}
	sort.Slice(reached, func(i, j int) bool { return reached[i].Key < reached[j].Key })

	for _, n := range reached {
		if n.Fn == nil || exemptCallers[n.Fn.Name()] {
			continue
		}
		for _, e := range n.Out {
			callee := e.Callee
			if callee.Fn == nil || callee.Fn.Name() != "Versions" {
				continue
			}
			// Methods only: a receiver distinguishes the version-list API
			// from any free function that happens to share the name.
			if sig, ok := callee.Fn.Type().(*types.Signature); !ok || sig.Recv() == nil {
				continue
			}
			pkg := callee.Fn.Pkg()
			if pkg == nil || !calleePkgs[analysis.PathBase(pkg.Path())] {
				continue
			}
			// One finding per call site, even when devirtualization fans
			// the site out to several concrete Versions methods.
			k := siteKey{caller: n, site: int(e.Site)}
			if seen[k] {
				continue
			}
			seen[k] = true
			flagged++
			pass.Reportf(e.Site,
				"unpinned Versions() on pinned query path (%s): use VersionsContext or a pinned lister",
				callgraph.PathTo(parents, n))
		}
	}
	pass.Notef("roots=%d reachable=%d flagged=%d", len(roots), len(parents), flagged)
	return nil
}
