package store

import (
	"context"
	"fmt"

	"txmldb/internal/diff"
	"txmldb/internal/model"
	"txmldb/internal/xmltree"
)

// VersionTree is a reconstructed document version.
type VersionTree struct {
	Info VersionInfo
	Root *xmltree.Node
}

// TEID returns the temporal identifier of the version's root element.
func (v VersionTree) TEID(doc model.DocID) model.TEID {
	return model.TEID{E: model.EID{Doc: doc, X: v.Root.XID}, T: v.Info.Stamp}
}

// readScript loads and parses one completed delta document from disk.
// Transient read faults are retried (bounded backoff); permanent failures
// name the broken delta so callers can report which part of the chain is
// damaged.
func (s *Store) readScript(ctx context.Context, d *docEntry, fromVer model.VersionNo) (*diff.Script, error) {
	info := d.versions[fromVer-1]
	if info.Pruned {
		return nil, fmt.Errorf("%w: delta %d→%d of doc %d", ErrPruned, fromVer, fromVer+1, d.id)
	}
	if info.DeltaToNext.Zero() {
		return nil, fmt.Errorf("store: no delta from version %d of doc %d", fromVer, d.id)
	}
	data, err := s.readExtentCtx(ctx, info.DeltaToNext)
	if err != nil {
		return nil, fmt.Errorf("store: reading delta %d→%d of doc %d: %w", fromVer, fromVer+1, d.id, err)
	}
	node, err := xmltree.Unmarshal(data)
	if err != nil {
		return nil, fmt.Errorf("store: parsing delta document %d→%d of doc %d: %w", fromVer, fromVer+1, d.id, err)
	}
	return diff.FromXML(node)
}

// ReadDelta returns the completed delta script transforming version fromVer
// into fromVer+1, reading it from disk.
func (s *Store) ReadDelta(id model.DocID, fromVer model.VersionNo) (*diff.Script, error) {
	return s.ReadDeltaContext(context.Background(), id, fromVer)
}

// ReadDeltaContext is ReadDelta honoring ctx in retry backoff.
func (s *Store) ReadDeltaContext(ctx context.Context, id model.DocID, fromVer model.VersionNo) (*diff.Script, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.docs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	// A delta is visible once its target version is: under an epoch pin the
	// last visible version reads as current, with no outgoing delta yet.
	if fromVer < 1 || int(fromVer) >= d.visibleLen(epochOf(ctx)) {
		return nil, fmt.Errorf("store: doc %d has no delta from version %d", id, fromVer)
	}
	return s.readScript(ctx, d, fromVer)
}

// ReconstructVersion rebuilds the given version of the document by reading
// the nearest snapshot at or after it and applying inverted completed
// deltas backwards (Section 7.3.3). The returned tree is owned by the
// caller.
func (s *Store) ReconstructVersion(id model.DocID, ver model.VersionNo) (VersionTree, error) {
	return s.ReconstructVersionContext(context.Background(), id, ver)
}

// ReconstructVersionContext is ReconstructVersion honoring ctx: retry
// backoff aborts when ctx is canceled, and the circuit breaker (when a
// resilience tier is configured) can reject the backend reads fast.
func (s *Store) ReconstructVersionContext(ctx context.Context, id model.DocID, ver model.VersionNo) (VersionTree, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.docs[id]
	if !ok {
		return VersionTree{}, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	return s.reconstruct(ctx, d, ver)
}

func (s *Store) reconstruct(ctx context.Context, d *docEntry, ver model.VersionNo) (VersionTree, error) {
	// Selection honors the epoch pin: versions published after the pin do
	// not exist for this reader. Mechanics below deliberately do not — the
	// snapshot search walks the full version list, because a pinned target's
	// content is immutable and may well be cheapest to materialize from a
	// snapshot published after the pin (walking inverted deltas back). That
	// is exactly what keeps pinned reads working when a concurrent writer
	// has dropped the old current snapshot in favor of a newer one.
	e := epochOf(ctx)
	if ver < 1 || int(ver) > d.visibleLen(e) {
		return VersionTree{}, fmt.Errorf("store: doc %d has no version %d", d.id, ver)
	}
	if d.versions[ver-1].Pruned {
		return VersionTree{}, fmt.Errorf("%w: version %d of doc %d", ErrPruned, ver, d.id)
	}
	// Use the oldest readable snapshot at or after the target version (the
	// current version always has a full serialization). A corrupt snapshot
	// degrades gracefully: reconstruction falls forward to the next
	// snapshot and applies the extra deltas instead of failing outright.
	var (
		tree    *xmltree.Node
		snapVer model.VersionNo
		snapErr error
	)
	for cand := ver; int(cand) <= len(d.versions); cand++ {
		if d.versions[cand-1].Snapshot.Zero() {
			continue
		}
		data, err := s.readExtentCtx(ctx, d.versions[cand-1].Snapshot)
		if err != nil {
			snapErr = fmt.Errorf("store: reading snapshot of version %d of doc %d: %w", cand, d.id, err)
			continue
		}
		t, err := xmltree.Unmarshal(data)
		if err != nil {
			snapErr = fmt.Errorf("store: parsing snapshot of version %d of doc %d: %w", cand, d.id, err)
			continue
		}
		tree, snapVer = t, cand
		break
	}
	if tree == nil {
		if snapErr != nil {
			return VersionTree{}, fmt.Errorf("%w: version %d of doc %d: %w", ErrUnreachable, ver, d.id, snapErr)
		}
		return VersionTree{}, fmt.Errorf("store: doc %d: no snapshot at or after version %d", d.id, ver)
	}
	// Apply inverted deltas backwards: snapVer-1 → ... → ver.
	ap := diff.NewApplier(tree)
	for v := snapVer - 1; v >= ver; v-- {
		script, err := s.readScript(ctx, d, v)
		if err != nil {
			return VersionTree{}, fmt.Errorf("%w: version %d of doc %d depends on delta %d→%d: %w",
				ErrUnreachable, ver, d.id, v, v+1, err)
		}
		if err := ap.Apply(script.Invert()); err != nil {
			return VersionTree{}, fmt.Errorf("store: applying inverse delta %d→%d: %w", v+1, v, err)
		}
	}
	return VersionTree{Info: d.infoAt(int(ver)-1, e), Root: tree}, nil
}

// ReconstructFromContext rebuilds version `to` of the document by
// replaying completed deltas forward from an already-materialized base
// version — the dynamic form of the paper's snapshot-bounding argument
// (Section 7.3.3): a caller holding version v′ pays only the v′→to chain
// instead of the full replay from the nearest stored snapshot. The base
// tree is not modified; the returned tree is owned by the caller. ctx
// bounds retry backoff and carries the epoch pin; the circuit breaker
// applies.
//
// The version-reconstruction cache uses this for nearest-cached-ancestor
// misses. base.Info.Ver must be at most `to`.
func (s *Store) ReconstructFromContext(ctx context.Context, id model.DocID, base VersionTree, to model.VersionNo) (VersionTree, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.docs[id]
	if !ok {
		return VersionTree{}, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	e := epochOf(ctx)
	if to < 1 || int(to) > d.visibleLen(e) {
		return VersionTree{}, fmt.Errorf("store: doc %d has no version %d", d.id, to)
	}
	from := base.Info.Ver
	if from < 1 || from > to {
		return VersionTree{}, fmt.Errorf("store: cannot replay doc %d forward from version %d to %d", d.id, from, to)
	}
	tree := base.Root.Clone()
	ap := diff.NewApplier(tree)
	for v := from; v < to; v++ {
		script, err := s.readScript(ctx, d, v)
		if err != nil {
			return VersionTree{}, fmt.Errorf("%w: version %d of doc %d depends on delta %d→%d: %w",
				ErrUnreachable, to, d.id, v, v+1, err)
		}
		if err := ap.Apply(script); err != nil {
			return VersionTree{}, fmt.Errorf("store: applying delta %d→%d: %w", v, v+1, err)
		}
	}
	return VersionTree{Info: d.infoAt(int(to)-1, e), Root: tree}, nil
}

// ReconstructAtContext rebuilds the version of the document valid at time
// t, honoring ctx.
func (s *Store) ReconstructAtContext(ctx context.Context, id model.DocID, t model.Time) (VersionTree, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.docs[id]
	if !ok {
		return VersionTree{}, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	v, err := d.versionAtEpoch(t, epochOf(ctx))
	if err != nil {
		return VersionTree{}, err
	}
	return s.reconstruct(ctx, d, v.Ver)
}

// DocHistoryContext returns all versions of the document valid in
// [from, to), most recent first — the output order of the paper's
// DocHistory algorithm (Section 7.3.4), which falls out of backward
// reconstruction. It is the one walk every run of versions is
// materialized by: DocHistory, ElementHistory (Section 7.3.5, the same
// walk plus a subtree filter) and the query executor's [EVERY] and
// [t1 TO t2]. The read lock is held for the whole walk. ctx is polled
// once per version, bounds retry backoff and carries the epoch pin; the
// circuit breaker applies.
func (s *Store) DocHistoryContext(ctx context.Context, id model.DocID, iv model.Interval) ([]VersionTree, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.docs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	// Find the newest and oldest versions whose validity intersects
	// [from, to). Overlap tests use epoch-clamped intervals: at the pin the
	// last visible version read as current (End Forever), so it overlaps
	// ranges its post-pin closure would exclude.
	e := epochOf(ctx)
	var out []VersionTree
	last := -1
	for i := d.visibleLen(e) - 1; i >= 0; i-- {
		if d.infoAt(i, e).Interval().Overlaps(iv) {
			last = i
			break
		}
	}
	if last < 0 {
		return nil, nil
	}
	// Reconstruct the newest version in range, then walk backwards with
	// inverted deltas, reusing the intermediate trees.
	vt, err := s.reconstruct(ctx, d, d.versions[last].Ver)
	if err != nil {
		return nil, err
	}
	tree := vt.Root
	ap := diff.NewApplier(tree)
	for i := last; i >= 0 && d.infoAt(i, e).Interval().Overlaps(iv); i-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out = append(out, VersionTree{Info: d.infoAt(i, e), Root: tree.Clone()})
		if i > 0 && d.versions[i-1].Pruned {
			// Pruning is a per-document prefix: everything further back was
			// reclaimed by retention, so the walk ends here.
			break
		}
		if i > 0 {
			script, err := s.readScript(ctx, d, d.versions[i-1].Ver)
			if err != nil {
				return nil, err
			}
			if err := ap.Apply(script.Invert()); err != nil {
				return nil, fmt.Errorf("store: history walk at version %d: %w", i, err)
			}
		}
	}
	return out, nil
}

// CreTimeTraverse finds the creation time of the element identified by the
// TEID by traversing completed deltas backwards from the version valid at
// the TEID's timestamp until the delta that introduced the element
// (Section 7.3.6, first strategy). No reconstruction is performed.
func (s *Store) CreTimeTraverse(teid model.TEID) (model.Time, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.docs[teid.E.Doc]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrNotFound, teid.E.Doc)
	}
	v, err := d.versionAt(teid.T)
	if err != nil {
		return 0, err
	}
	return s.creTimeScan(d, v.Ver, teid.E.X)
}

// CreTimeTraverseFromCurrent is the strategy available when only an EID is
// known: traversal starts at the current version. The paper points out this
// is more expensive, which experiment C4 quantifies.
func (s *Store) CreTimeTraverseFromCurrent(eid model.EID) (model.Time, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.docs[eid.Doc]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrNotFound, eid.Doc)
	}
	return s.creTimeScan(d, model.VersionNo(len(d.versions)), eid.X)
}

func (s *Store) creTimeScan(d *docEntry, fromVer model.VersionNo, x model.XID) (model.Time, error) {
	for ver := fromVer; ver >= 2; ver-- {
		script, err := s.readScript(context.Background(), d, ver-1)
		if err != nil {
			return 0, err
		}
		for _, op := range script.Ops {
			if op.Kind == diff.OpInsert && op.Node.FindXID(x) != nil {
				return script.ToStamp, nil
			}
		}
	}
	// Never inserted by a delta: the element is part of version 1.
	return d.versions[0].Stamp, nil
}

// DelTimeTraverse finds the deletion time of the element: Forever if it is
// still part of the current version of a live document, the document
// deletion time if the document was deleted with the element in its last
// version, and otherwise the timestamp of the delta that removed it,
// found by forward traversal from the TEID's timestamp (Section 7.3.6).
func (s *Store) DelTimeTraverse(teid model.TEID) (model.Time, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.docs[teid.E.Doc]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrNotFound, teid.E.Doc)
	}
	v, err := d.versionAt(teid.T)
	if err != nil {
		return 0, err
	}
	// If the element is still in the (cached) last version, its delete
	// time is the document's.
	if d.cur == nil {
		return 0, fmt.Errorf("store: current version of doc %d unavailable: %w", d.id, d.curErr)
	}
	if d.cur.FindXID(teid.E.X) != nil {
		return d.deleted, nil // Forever for live documents
	}
	for ver := v.Ver + 1; int(ver) <= len(d.versions); ver++ {
		script, err := s.readScript(context.Background(), d, ver-1)
		if err != nil {
			return 0, err
		}
		for _, op := range script.Ops {
			if op.Kind == diff.OpDelete && op.Node != nil && op.Node.FindXID(teid.E.X) != nil {
				return script.ToStamp, nil
			}
		}
	}
	return 0, fmt.Errorf("store: element %s not found in any delta after %s", teid.E, teid.T)
}
