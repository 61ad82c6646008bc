// Package fsyncpoint guards the write path's single durability point.
//
// PR 9 introduced WAL group commit: concurrent commits collect in a
// batcher and share one backend fsync, so sustained commit throughput
// scales with writers instead of being bounded by the disk's sync
// latency. The whole design collapses if any code path issues its own
// durability barrier — a direct Backend.Commit from the engine is a
// per-commit fsync that silently bypasses the batch, and the workload
// measures single-writer throughput no matter how many writers run.
//
// The analyzer inspects internal/pagestore, internal/store, and
// internal/core and reports calls (not method values — passing
// backend.Commit as the batcher's flush function is exactly the intended
// wiring) named Commit or Sync through a value whose type is a named
// interface ending in "Backend":
//
//   - in store and core: every such call, plus (*os.File).Sync — the
//     engine must commit through (*pagestore.Batch).Commit, which routes
//     every batch into the group committer;
//   - in pagestore: every such call except delegation inside a backend
//     decorator (a method on a type that itself implements the same
//     Backend interface, e.g. the fault injector forwarding Commit to its
//     inner backend). The group committer's flush, wired as the method
//     value backend.Commit, is the only commit path.
//
// The check is intraprocedural; like the rest of txvet it trades whole-
// program soundness for zero dependencies and fast CI feedback.
package fsyncpoint

import (
	"go/ast"
	"go/types"
	"strings"

	"txmldb/internal/analysis"
)

// Analyzer flags durability barriers issued outside the batcher flush path.
var Analyzer = &analysis.Analyzer{
	Name: "fsyncpoint",
	Doc: "in pagestore/store/core: flag Backend.Commit/Sync calls (and engine-side " +
		"os.File.Sync) outside the group-commit flush path — the fsync belongs to " +
		"the page store's commit path so batching can amortize it",
	Run: run,
}

var targetSegments = map[string]bool{
	"pagestore": true, "store": true, "core": true,
}

func run(pass *analysis.Pass) error {
	seg := analysis.PathBase(pass.Pkg.Path())
	if !targetSegments[seg] {
		return nil
	}
	engineSide := seg != "pagestore"
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				name := sel.Sel.Name
				if name != "Commit" && name != "Sync" {
					return true
				}
				s := pass.TypesInfo.Selections[sel]
				if s == nil || s.Kind() != types.MethodVal {
					return true
				}
				if iface, ifname, ok := backendInterface(s.Recv()); ok {
					switch {
					case engineSide:
						pass.Reportf(call.Pos(), "%s.%s called from %s: commit through the page store so a configured group-commit window can batch the fsync",
							ifname, name, seg)
					case !delegates(pass, fd, iface):
						pass.Reportf(call.Pos(), "%s.%s called outside the batcher flush path: the backend barrier is the batch's single durability point",
							ifname, name)
					}
					return true
				}
				if engineSide && name == "Sync" && isOSFile(s.Recv()) {
					pass.Reportf(call.Pos(), "os.File.Sync called from %s: per-commit fsync belongs to the page store's commit path, not the engine", seg)
				}
				return true
			})
		}
	}
	return nil
}

// delegates reports whether fd is a method on a type that itself
// implements iface — a backend decorator forwarding the barrier to its
// inner backend, which is the one legitimate non-batcher call shape
// inside pagestore.
func delegates(pass *analysis.Pass, fd *ast.FuncDecl, iface *types.Named) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	rt := pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
	it, ok := iface.Underlying().(*types.Interface)
	if rt == nil || !ok {
		return false
	}
	return types.Implements(rt, it)
}

// backendInterface reports whether t (or *t) is a named interface whose
// name ends in "Backend", returning the type and its name.
func backendInterface(t types.Type) (*types.Named, string, bool) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil, "", false
	}
	if _, ok := named.Underlying().(*types.Interface); !ok {
		return nil, "", false
	}
	name := named.Obj().Name()
	if !strings.HasSuffix(name, "Backend") {
		return nil, "", false
	}
	return named, name, true
}

// isOSFile reports whether t (or *t) is os.File.
func isOSFile(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "os" && obj.Name() == "File"
}
