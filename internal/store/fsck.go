package store

import (
	"fmt"
	"sort"
	"strings"

	"txmldb/internal/model"
	"txmldb/internal/pagestore"
)

// Fsck walks every document's delta index, verifies every referenced
// extent (delta chains, snapshots, the cached current version) and returns
// a structured corruption report: which extent is damaged, why, and which
// versions become unreachable because of it.

// FsckProblem is one damaged extent and its blast radius.
type FsckProblem struct {
	Doc  model.DocID
	Name string
	// Ver is the version owning the extent: the delta's from-version, or
	// the snapshot's version.
	Ver model.VersionNo
	// Kind is "delta", "snapshot" or "current" (the recovered in-memory
	// current version).
	Kind string
	Ref  pagestore.Ref
	Err  error
	// Where names the physical location of the damaged extent when the
	// backend can attribute it — the WAL segment file and byte offset the
	// extent record lives at, or the checkpoint image it was loaded from.
	// Empty on backends without provenance tracking.
	Where string
	// Unreachable lists versions that cannot be reconstructed because of
	// this extent alone (they would be reachable if it were intact).
	Unreachable []model.VersionNo
}

func (p FsckProblem) String() string {
	s := fmt.Sprintf("doc %d (%s) version %d: %s at page %d: %v",
		p.Doc, p.Name, p.Ver, p.Kind, p.Ref.Start, p.Err)
	if p.Where != "" {
		s += fmt.Sprintf(" (in %s)", p.Where)
	}
	if len(p.Unreachable) > 0 {
		vs := make([]string, len(p.Unreachable))
		for i, v := range p.Unreachable {
			vs[i] = fmt.Sprint(v)
		}
		s += fmt.Sprintf(" (versions unreachable: %s)", strings.Join(vs, ","))
	}
	return s
}

// FsckReport summarizes a full storage walk.
type FsckReport struct {
	Docs     int // documents walked
	Versions int // version entries walked
	Extents  int // extents verified (deltas + snapshots)
	Problems []FsckProblem
}

// Clean reports whether the walk found no corruption.
func (r FsckReport) Clean() bool { return len(r.Problems) == 0 }

func (r FsckReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fsck: %d documents, %d versions, %d extents checked",
		r.Docs, r.Versions, r.Extents)
	if r.Clean() {
		b.WriteString(", no corruption")
		return b.String()
	}
	fmt.Fprintf(&b, ", %d problems:", len(r.Problems))
	for _, p := range r.Problems {
		b.WriteString("\n  ")
		b.WriteString(p.String())
	}
	return b.String()
}

// Fsck verifies every extent referenced by the delta indexes. Reads go
// through the retry path but bypass the circuit breaker — a diagnostic
// walk must see the device's true state even mid-outage — so transient
// faults do not show up as corruption; checksum mismatches
// (pagestore.ErrCorrupt), lost extents (pagestore.ErrUnknownExtent) and
// unrecovered current versions do. Feed the report's verdict into the
// resilience tier with Tier.RecordFsck (core.DB.Fsck does).
func (s *Store) Fsck() FsckReport {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var rep FsckReport
	ids := make([]model.DocID, 0, len(s.docs))
	for id := range s.docs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		d := s.docs[id]
		rep.Docs++
		rep.Versions += len(d.versions)
		n := len(d.versions)
		deltaOK := make([]bool, n+1) // deltaOK[v]: delta v→v+1 readable
		snapOK := make([]bool, n+1)  // snapOK[v]: snapshot of v readable
		var problems []FsckProblem
		for i, v := range d.versions {
			if !v.DeltaToNext.Zero() {
				rep.Extents++
				if _, err := s.readExtentRaw(v.DeltaToNext); err != nil {
					problems = append(problems, FsckProblem{
						Doc: id, Name: d.name, Ver: v.Ver,
						Kind: "delta", Ref: v.DeltaToNext, Err: err,
						Where: s.provenance(v.DeltaToNext),
					})
				} else {
					deltaOK[i+1] = true
				}
			}
			if !v.Snapshot.Zero() {
				rep.Extents++
				if _, err := s.readExtentRaw(v.Snapshot); err != nil {
					problems = append(problems, FsckProblem{
						Doc: id, Name: d.name, Ver: v.Ver,
						Kind: "snapshot", Ref: v.Snapshot, Err: err,
						Where: s.provenance(v.Snapshot),
					})
				} else {
					snapOK[i+1] = true
				}
			}
		}
		// Blast radius: for each broken extent, report the versions that
		// this extent alone makes unreachable.
		for pi := range problems {
			p := &problems[pi]
			for v := 1; v <= n; v++ {
				if !reachableWith(deltaOK, snapOK, v, n, nil) &&
					reachableWith(deltaOK, snapOK, v, n, p) {
					p.Unreachable = append(p.Unreachable, model.VersionNo(v))
				}
			}
		}
		if d.deleted == model.Forever && d.cur == nil {
			// A live document whose current version did not recover: its
			// history may be fine, but Current/Update cannot proceed.
			problems = append(problems, FsckProblem{
				Doc: id, Name: d.name, Ver: model.VersionNo(n),
				Kind: "current", Ref: d.versions[n-1].Snapshot, Err: d.curErr,
				Where: s.provenance(d.versions[n-1].Snapshot),
			})
		}
		rep.Problems = append(rep.Problems, problems...)
	}
	return rep
}

// provenance asks the backend where the extent physically lives; empty when
// the backend does not track origins.
func (s *Store) provenance(ref pagestore.Ref) string {
	where, _ := s.pages.Provenance(ref.Start)
	return where
}

// reachableWith reports whether version v reconstructs given the intact
// maps, optionally pretending the broken extent in fixed is intact (to
// isolate one extent's blast radius). It follows the planner: the current
// version is its own snapshot, which recovery loads; an older one needs an
// intact snapshot on either side and the intact deltas between.
func reachableWith(deltaOK, snapOK []bool, v, n int, fixed *FsckProblem) bool {
	ok := func(kind string, i int, intact []bool) bool {
		return intact[i] || fixed != nil && fixed.Kind == kind && int(fixed.Ver) == i
	}
	if v == n {
		return ok("snapshot", n, snapOK)
	}
	for sv := 1; sv <= n; sv++ {
		reach := ok("snapshot", sv, snapOK)
		for d := min(v, sv); reach && d < max(v, sv); d++ {
			reach = ok("delta", d, deltaOK)
		}
		if reach {
			return true
		}
	}
	return false
}
