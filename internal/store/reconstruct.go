package store

import (
	"context"
	"errors"
	"fmt"

	"txmldb/internal/diff"
	"txmldb/internal/model"
	"txmldb/internal/xmltree"
)

// Reconstruction (Section 7.3.3) is a base plus the completed deltas
// between it and the target, applied forward or inverted. The current
// version is the store's own tree (Section 7.1 keeps it whole); an older
// one starts from the nearest version the caller holds (Resident) or
// retained snapshot on either side, the cheaper first, and one walk
// carries the tree across a run of versions. If a base or a delta cannot
// be read, the plan moves past that base.

// VersionTree is a reconstructed document version.
type VersionTree struct {
	Info VersionInfo
	Root *xmltree.Node
}

// TEID returns the temporal identifier of the version's root element.
func (v VersionTree) TEID(doc model.DocID) model.TEID {
	return model.TEID{E: model.EID{Doc: doc, X: v.Root.XID}, T: v.Info.Stamp}
}

// Resident is the planner's residency hook: it returns the caller's tree
// of a version of the document being planned, or nil. The store calls it
// under its read lock and never modifies the tree.
type Resident func(ver model.VersionNo) *xmltree.Node

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

// ReconstructVersion rebuilds the given version of the document; the
// returned tree is owned by the caller.
func (s *Store) ReconstructVersion(id model.DocID, ver model.VersionNo) (VersionTree, error) {
	return s.ReconstructWith(context.Background(), id, ver, nil)
}

// ReconstructVersionContext is ReconstructVersion honoring ctx: retry
// backoff aborts when ctx is canceled, and the circuit breaker (when a
// resilience tier is configured) can reject the backend reads fast.
func (s *Store) ReconstructVersionContext(ctx context.Context, id model.DocID, ver model.VersionNo) (VersionTree, error) {
	return s.ReconstructWith(ctx, id, ver, nil)
}

// ReconstructWith is ReconstructVersionContext planning with res, which
// may be nil.
func (s *Store) ReconstructWith(ctx context.Context, id model.DocID, ver model.VersionNo, res Resident) (VersionTree, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.docs[id]
	if !ok {
		return VersionTree{}, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	return s.reconstruct(ctx, d, ver, res)
}

func (s *Store) reconstruct(ctx context.Context, d *docEntry, ver model.VersionNo, res Resident) (VersionTree, error) {
	// Selection honors the epoch pin; the planner does not: a pinned
	// target's content is immutable, and its cheapest base may have been
	// published after the pin (a concurrent writer may have dropped the
	// snapshot the pin saw as current).
	if ver < 1 || int(ver) > d.visibleLen(epochOf(ctx)) {
		return VersionTree{}, fmt.Errorf("store: doc %d has no version %d", d.id, ver)
	}
	if d.versions[ver-1].Pruned {
		return VersionTree{}, fmt.Errorf("%w: version %d of doc %d", ErrPruned, ver, d.id)
	}
	var out VersionTree
	err := s.walk(ctx, d, int(ver), int(ver), res, func(vt VersionTree, err error) error {
		out = vt
		return err
	})
	return out, err
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
	return s.reconstruct(ctx, d, v.Ver, nil)
}

// DocHistoryContext is DocHistoryWith without a residency hook.
func (s *Store) DocHistoryContext(ctx context.Context, id model.DocID, iv model.Interval) ([]VersionTree, error) {
	return s.DocHistoryWith(ctx, id, iv, nil)
}

// DocHistoryWith returns all versions of the document valid in [from, to),
// most recent first (the paper's DocHistory, Section 7.3.4), from one walk
// planned with res, which may be nil. It serves DocHistory, ElementHistory
// and the executor's [EVERY] and [t1 TO t2]. The read lock is held for the
// whole walk; ctx is polled at every step, bounds retry backoff and
// carries the epoch pin; the circuit breaker applies.
func (s *Store) DocHistoryWith(ctx context.Context, id model.DocID, iv model.Interval, res Resident) ([]VersionTree, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, lo, hi, err := s.validRun(ctx, id, iv)
	if err != nil || hi == 0 {
		return nil, err
	}
	var out []VersionTree
	if err := s.walk(ctx, d, hi, lo, res, func(vt VersionTree, err error) error {
		out = append(out, vt)
		return err
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Walk hands the versions of the document valid in iv to fn one at a
// time, oldest first: the walk of whole-history passes (reindexing, Dump).
// A version no base reaches comes with its error and a nil Root, and fn
// decides whether the pass goes on; fn's error ends it. The read lock is
// held while a version is materialized, not while fn runs.
func (s *Store) Walk(id model.DocID, iv model.Interval, res Resident, fn func(VersionTree, error) error) error {
	ctx := context.Background()
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, lo, hi, err := s.validRun(ctx, id, iv)
	if err != nil || hi == 0 {
		return err
	}
	return s.walk(ctx, d, lo, hi, res, func(vt VersionTree, err error) error {
		s.mu.RUnlock()
		defer s.mu.RLock()
		return fn(vt, err)
	})
}

// validRun finds the run lo..hi of versions whose epoch-clamped validity
// overlaps iv (at the pin the last visible version reads as current),
// above any pruned prefix; hi is 0 when none does. Callers hold s.mu.
func (s *Store) validRun(ctx context.Context, id model.DocID, iv model.Interval) (d *docEntry, lo, hi int, err error) {
	d, ok := s.docs[id]
	if !ok {
		return nil, 0, 0, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	e := epochOf(ctx)
	in := func(v int) bool { return d.infoAt(v-1, e).Interval().Overlaps(iv) }
	for hi = d.visibleLen(e); hi > 0 && !in(hi); hi-- {
	}
	if hi > 0 && d.versions[hi-1].Pruned {
		return nil, 0, 0, fmt.Errorf("%w: version %d of doc %d", ErrPruned, hi, d.id)
	}
	for lo = hi; lo > 1 && !d.versions[lo-2].Pruned && in(lo-1); lo-- {
	}
	return d, lo, hi, nil
}

// walk hands versions from..to of d to fn in that order, walking back
// when to < from. The first comes from its plan, each next one from the
// one before: its resident tree, or the delta between them. A version a
// step cannot reach is planned on its own, and one no base reaches is
// handed over with its error. Callers hold s.mu.
func (s *Store) walk(ctx context.Context, d *docEntry, from, to int, res Resident, fn func(VersionTree, error) error) error {
	if res == nil {
		res = func(model.VersionNo) *xmltree.Node { return nil }
	}
	w := &walker{s: s, ctx: ctx, d: d, res: res}
	dir, e := 1, epochOf(ctx)
	if to < from {
		dir = -1
	}
	for v := from; ; v += dir {
		var root *xmltree.Node
		err := w.reach(v)
		if err != nil {
			w.tree = nil // a failed walk's tree is no base for the next version
		} else if root = w.tree; w.shared || v != to {
			root = root.Clone()
		}
		if err := fn(VersionTree{Info: d.infoAt(v-1, e), Root: root}, err); err != nil || v == to {
			return err
		}
	}
}

// walker holds a walk's tree: version ver, shared while it is a resident
// tree or the store's current one (cloned before a delta touches it), nil
// when it has none.
type walker struct {
	s      *Store
	ctx    context.Context
	d      *docEntry
	res    Resident
	ver    int
	tree   *xmltree.Node
	shared bool
	ap     *diff.Applier
}

// base is where a reconstruction can start: version ver, held as tree
// when it is resident, otherwise its retained snapshot; ver 0 is none.
type base struct {
	ver  int
	tree *xmltree.Node
}

// cost counts b's extent reads plus a read and an application per delta
// between b and version v.
func (b base) cost(v int) int {
	c := 2 * max(b.ver-v, v-b.ver)
	if b.tree == nil {
		c++
	}
	return c
}

// nearest scans from version u in direction dir for the first resident
// version or retained snapshot, stopping at the pruned prefix. Nothing
// farther on that side is cheaper: it needs every delta the nearer one
// does.
func (w *walker) nearest(u, dir int) base {
	for ; u >= 1 && u <= len(w.d.versions) && !w.d.versions[u-1].Pruned; u += dir {
		if t := w.res(model.VersionNo(u)); t != nil {
			return base{ver: u, tree: t}
		}
		if !w.d.versions[u-1].Snapshot.Zero() {
			return base{ver: u}
		}
	}
	return base{}
}

// reach brings the walker's tree to version v. The current version is the
// store's tree. An older one is one step from the version next to it when
// the walker holds that one, otherwise (or when the step finds an extent
// unreadable) it walks from the cheaper of the nearest bases on either
// side, ties to the later one; when that cannot be read through, the next
// base past it on its side takes its place. The store's tree is no base
// for older versions: they are anchored in stored extents, so a reader
// reaches the versions Fsck's blast radius says survive a restart.
func (w *walker) reach(v int) error {
	d, n := w.d, len(w.d.versions)
	if v == n {
		if d.cur == nil {
			return fmt.Errorf("%w: current version %d of doc %d: %w", ErrUnreachable, v, d.id, d.curErr)
		}
		w.ver, w.tree, w.shared, w.ap = n, d.cur, true, nil
		return nil
	}
	if w.tree != nil && w.ver != n {
		if err := w.step(v); err == nil || !errors.Is(err, ErrUnreachable) {
			return err
		}
	}
	up, down := w.nearest(v, 1), w.nearest(v-1, -1)
	first := fmt.Errorf("%w: no base for version %d of doc %d", ErrUnreachable, v, d.id)
	for tried := false; up.ver != 0 || down.ver != 0; tried = true {
		b, dir := &up, 1
		if up.ver == 0 || down.ver != 0 && down.cost(v) < up.cost(v) {
			b, dir = &down, -1
		}
		err := w.from(*b, v)
		if err == nil || !errors.Is(err, ErrUnreachable) {
			return err
		}
		if !tried {
			first = err
		}
		*b = w.nearest(b.ver+dir, dir)
	}
	return first
}

// from walks from base b to version v.
func (w *walker) from(b base, v int) error {
	w.ver, w.tree, w.shared, w.ap = b.ver, b.tree, b.tree != nil, nil
	if w.tree == nil {
		data, err := w.s.readExtentCtx(w.ctx, w.d.versions[b.ver-1].Snapshot)
		if err == nil {
			w.tree, err = xmltree.Unmarshal(data)
		}
		if err != nil {
			return fmt.Errorf("%w: snapshot of version %d of doc %d: %w", ErrUnreachable, b.ver, w.d.id, err)
		}
	}
	for w.ver != v {
		to := w.ver + 1
		if v < w.ver {
			to = w.ver - 1
		}
		if err := w.step(to); err != nil {
			return err
		}
	}
	return nil
}

// step moves to the adjacent version to: its resident tree if there is
// one, otherwise the delta between the two applied, inverted when walking
// back. An unreadable delta is ErrUnreachable; one that does not apply is
// not.
func (w *walker) step(to int) error {
	if err := w.ctx.Err(); err != nil {
		return err
	}
	if t := w.res(model.VersionNo(to)); t != nil {
		w.ver, w.tree, w.shared, w.ap = to, t, true, nil
		return nil
	}
	from := min(w.ver, to)
	script, err := w.s.readScript(w.ctx, w.d, model.VersionNo(from))
	if err != nil {
		return fmt.Errorf("%w: version %d of doc %d depends on delta %d→%d: %w", ErrUnreachable, to, w.d.id, from, from+1, err)
	}
	if w.shared {
		w.tree, w.shared, w.ap = w.tree.Clone(), false, nil
	}
	if w.ap == nil {
		w.ap = diff.NewApplier(w.tree)
	}
	if to < w.ver {
		script = script.Invert()
	}
	if err := w.ap.Apply(script); err != nil {
		return fmt.Errorf("store: applying delta %d→%d of doc %d: %w", from, from+1, w.d.id, err)
	}
	w.s.deltas.Add(1)
	w.ver = to
	return nil
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
