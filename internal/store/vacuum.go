package store

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"txmldb/internal/model"
	"txmldb/internal/pagestore"
	"txmldb/internal/xmltree"
)

// Retention vacuum: reclaim the space of historical versions nobody will
// query again. The paper's storage model (Section 7.1) keeps every
// completed delta forever; a retention policy bounds that. Pruning is
// always a per-document *prefix* of the version chain — version numbers are
// positional in the delta index, so pruned entries stay as stubs with their
// extents freed rather than being removed. Before pruning, the vacuum
// intersperses full snapshots among the survivors at the configured granule
// (Section 7.1's snapshot interspersal), so the oldest surviving versions
// stay reconstructible without the deltas below the cut.

// ErrPruned reports an access to a version whose extents were reclaimed by
// a retention vacuum.
var ErrPruned = errors.New("store: version pruned by retention policy")

// RetentionPolicy selects which historical versions a vacuum keeps.
type RetentionPolicy int

const (
	// KeepAll prunes nothing; a vacuum only intersperses snapshots.
	KeepAll RetentionPolicy = iota
	// KeepLast keeps the newest KeepLast versions of every document.
	KeepLast
	// KeepSince keeps every version still valid at or after KeepSince.
	KeepSince
)

func (p RetentionPolicy) String() string {
	switch p {
	case KeepAll:
		return "keep-all"
	case KeepLast:
		return "keep-last"
	case KeepSince:
		return "keep-since"
	}
	return fmt.Sprintf("RetentionPolicy(%d)", int(p))
}

// Retention parameterizes a vacuum.
type Retention struct {
	Policy RetentionPolicy
	// KeepLast is the per-document version count kept under the KeepLast
	// policy; values below 1 keep only the current version.
	KeepLast int
	// KeepSince is the horizon under the KeepSince policy: versions whose
	// validity ends at or before it are pruned.
	KeepSince model.Time
	// Granule intersperses a full snapshot every Granule-th surviving
	// version before pruning; 0 uses the store's SnapshotEvery, and if that
	// is also 0 only the retention boundary version gets a snapshot.
	Granule int
}

// VacuumReport summarizes one vacuum pass.
type VacuumReport struct {
	Docs           int   // documents examined
	VersionsPruned int   // version entries turned into pruned stubs
	ExtentsFreed   int   // delta + snapshot extents reclaimed
	BytesFreed     int64 // payload bytes of the reclaimed extents
	SnapshotsAdded int   // snapshots interspersed among survivors
}

func (r VacuumReport) String() string {
	return fmt.Sprintf("vacuum: %d docs, %d versions pruned, %d extents freed (%d bytes), %d snapshots added",
		r.Docs, r.VersionsPruned, r.ExtentsFreed, r.BytesFreed, r.SnapshotsAdded)
}

// Vacuum applies the retention policy to every document: it materializes
// snapshots among the surviving versions at the retention granule, then
// frees the delta and snapshot extents of everything older, leaving pruned
// stubs in the delta index. The current version is always kept. All of it —
// the new snapshots, the frees and the pruned tables — is staged in one
// batch and swapped in only after that batch commits, so a failed vacuum
// changes nothing. The freed pages become reusable immediately; on a
// segmented WAL the space returns to disk at the next
// checkpoint+compaction.
func (s *Store) Vacuum(ret Retention) (VacuumReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rep VacuumReport
	b := s.pages.Begin()
	defer b.Release()
	staged := make(map[model.DocID][]VersionInfo)
	ids := make([]model.DocID, 0, len(s.docs))
	for id := range s.docs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		d := s.docs[id]
		rep.Docs++
		bound := retentionBoundary(d, ret)
		if bound <= 0 {
			continue
		}
		vs := append([]VersionInfo(nil), d.versions...)
		if err := s.intersperseSnapshotsLocked(b, d, vs, bound, ret.Granule, &rep); err != nil {
			return rep, fmt.Errorf("store: vacuum doc %d: %w", id, err)
		}
		for i := 0; i < bound; i++ {
			v := &vs[i]
			if v.Pruned {
				continue
			}
			if !v.DeltaToNext.Zero() {
				rep.ExtentsFreed++
				rep.BytesFreed += int64(v.DeltaToNext.Len)
				b.Free(v.DeltaToNext)
				v.DeltaToNext = pagestore.Ref{}
			}
			if !v.Snapshot.Zero() {
				rep.ExtentsFreed++
				rep.BytesFreed += int64(v.Snapshot.Len)
				b.Free(v.Snapshot)
				v.Snapshot = pagestore.Ref{}
			}
			v.Pruned = true
			rep.VersionsPruned++
		}
		staged[id] = vs
	}
	if rep.VersionsPruned == 0 && rep.SnapshotsAdded == 0 {
		return rep, nil
	}
	durable := s.pages.Durable()
	if durable {
		meta, err := s.marshalMetaLocked(staged)
		if err != nil {
			return rep, fmt.Errorf("store: vacuum: serialize meta: %w", err)
		}
		b.SetMeta(meta)
	}
	if err := b.Commit(); err != nil {
		return rep, fmt.Errorf("store: vacuum: commit: %w", err)
	}
	if durable {
		s.ckptCommits++
	}
	for id, vs := range staged {
		s.docs[id].versions = vs
	}
	return rep, nil
}

// retentionBoundary returns the index (0-based) of the oldest version the
// policy keeps for d; everything below it is pruned. The current version is
// always kept, as is at least one version of a deleted document (so the
// entry stays well-formed).
func retentionBoundary(d *docEntry, ret Retention) int {
	n := len(d.versions)
	var b int
	switch ret.Policy {
	case KeepLast:
		k := ret.KeepLast
		if k < 1 {
			k = 1
		}
		b = n - k
	case KeepSince:
		// Keep versions whose validity interval reaches KeepSince or later.
		b = sort.Search(n, func(i int) bool { return d.versions[i].End > ret.KeepSince })
	default:
		return 0
	}
	if b > n-1 {
		b = n - 1
	}
	if b < 0 {
		b = 0
	}
	return b
}

// intersperseSnapshotsLocked materializes full snapshots among the
// surviving versions [bound, n) at the given granule so that
// reconstruction never needs a delta below the cut: the boundary version
// always gets one, then every granule-th survivor above it. One walk over
// the versions that need a snapshot materializes them all, oldest first
// so the snapshots are written in version order. The snapshots
// are staged in batch b and recorded in vs, d's staged version table;
// reconstruction reads d's published one. Callers hold s.mu.
func (s *Store) intersperseSnapshotsLocked(b *pagestore.Batch, d *docEntry, vs []VersionInfo, bound, granule int, rep *VacuumReport) error {
	if granule <= 0 {
		granule = s.cfg.SnapshotEvery
	}
	var need []model.VersionNo
	for i := bound; i < len(vs); i++ {
		if granule <= 0 && i != bound {
			break
		}
		if i != bound && (i-bound)%granule != 0 {
			continue
		}
		if v := vs[i]; v.Snapshot.Zero() && !v.Pruned {
			need = append(need, v.Ver)
		}
	}
	if len(need) == 0 {
		return nil
	}
	return s.walk(context.Background(), d, int(need[0]), int(need[len(need)-1]), nil, func(vt VersionTree, err error) error {
		if v := vt.Info.Ver; v == need[0] {
			if need = need[1:]; err != nil {
				return fmt.Errorf("materializing snapshot of version %d: %w", v, err)
			}
			vs[v-1].Snapshot = b.Write(int(d.id), xmltree.Marshal(vt.Root))
			rep.SnapshotsAdded++
		}
		return nil
	})
}
