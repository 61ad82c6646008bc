package store

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"txmldb/internal/model"
	"txmldb/internal/pagestore"
	"txmldb/internal/xmltree"
)

// Durable operation: when the page store sits on a durable backend (the
// segmented WAL), every Put/Update/Delete stages the mutated document's
// table entry — its version entries with their extent references — as one
// metadata delta record in the batch that holds the extents it wrote, and
// commits the batch. A full snapshot of the whole document table is logged
// only by vacuum and stored in checkpoint images; deltas apply on top of the
// last one. A batch reaches the log whole or not at all, so a crash either
// keeps a mutation entirely (extents + index) or discards it entirely;
// reopening with Open rebuilds the in-memory store from the last committed
// snapshot plus the committed deltas after it.
//
// Both records are JSON: small next to the XML payloads they reference,
// human-inspectable when debugging a damaged log, and free of schema
// machinery. Their cost is measured by the WAL's write-amplification counters
// (the ingest-durable workload's pagestore.write_amp in bench/).

const metaFormat = 1

type metaFile struct {
	Format  int       `json:"format"`
	NextDoc int64     `json:"nextDoc"`
	Docs    []metaDoc `json:"docs"`
}

type metaDoc struct {
	ID       int64         `json:"id"`
	Name     string        `json:"name"`
	NextXID  int64         `json:"nextXID"`
	Created  int64         `json:"created"`
	Deleted  int64         `json:"deleted"`
	RootXID  int64         `json:"rootXID"`
	Versions []metaVersion `json:"versions"`
}

type metaVersion struct {
	Ver    int64   `json:"ver"`
	Stamp  int64   `json:"stamp"`
	End    int64   `json:"end"`
	Delta  metaRef `json:"delta"`
	Snap   metaRef `json:"snap"`
	Pruned bool    `json:"pruned,omitempty"`
}

// metaDelta is one incremental metadata record: a full upsert of a single
// document's table entry. Every commit logs one of these instead of the whole
// table; replay applies them in order on top of the last full snapshot. An
// entry without versions withdraws the document. Nothing writes one any
// more, but replay still honours it: logs written before batched commits
// used it to cancel the record of a create whose commit had failed.
type metaDelta struct {
	Format  int     `json:"format"`
	NextDoc int64   `json:"nextDoc"`
	Doc     metaDoc `json:"doc"`
}

type metaRef struct {
	Start int64 `json:"start"`
	Pages int32 `json:"pages"`
	Len   int32 `json:"len"`
}

func toMetaRef(r pagestore.Ref) metaRef { return metaRef{Start: r.Start, Pages: r.Pages, Len: r.Len} }
func (m metaRef) ref() pagestore.Ref {
	return pagestore.Ref{Start: m.Start, Pages: m.Pages, Len: m.Len}
}

// metaDocOf flattens one document entry, with the given version table,
// into its wire form.
func metaDocOf(d *docEntry, versions []VersionInfo) metaDoc {
	md := metaDoc{
		ID:      int64(d.id),
		Name:    d.name,
		NextXID: int64(d.nextXID),
		Created: int64(d.created),
		Deleted: int64(d.deleted),
		RootXID: int64(d.rootXID),
	}
	for _, v := range versions {
		md.Versions = append(md.Versions, metaVersion{
			Ver:    int64(v.Ver),
			Stamp:  int64(v.Stamp),
			End:    int64(v.End),
			Delta:  toMetaRef(v.DeltaToNext),
			Snap:   toMetaRef(v.Snapshot),
			Pruned: v.Pruned,
		})
	}
	return md
}

// marshalMetaLocked serializes the document table, with the version tables
// in staged replacing the published ones. Callers hold s.mu.
func (s *Store) marshalMetaLocked(staged map[model.DocID][]VersionInfo) ([]byte, error) {
	mf := metaFile{Format: metaFormat, NextDoc: int64(s.nextDoc)}
	ids := make([]model.DocID, 0, len(s.docs))
	for id := range s.docs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		vs, ok := staged[id]
		if !ok {
			vs = s.docs[id].versions
		}
		mf.Docs = append(mf.Docs, metaDocOf(s.docs[id], vs))
	}
	return json.Marshal(mf)
}

// marshalDocDelta serializes a single-document upsert record. The entry is
// a writer's private staged copy, so no store lock is needed; nextDoc is a
// point-in-time reading (restore merges NextDoc by maximum, so a value that
// is stale relative to a concurrent Put is harmless).
func marshalDocDelta(d *docEntry, nextDoc int64) ([]byte, error) {
	return json.Marshal(metaDelta{
		Format:  metaFormat,
		NextDoc: nextDoc,
		Doc:     metaDocOf(d, d.versions),
	})
}

// MarshalMeta serializes the full document table, as a checkpoint image
// stores it: a base that later metadata deltas apply on top of.
func (s *Store) MarshalMeta() ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.marshalMetaLocked(nil)
}

// Open returns a store over cfg; if the backend carries a committed
// metadata snapshot (a durable store being reopened), the document table is
// restored from it and each live document's current version is loaded from
// its snapshot extent.
//
// Recovery is deliberately tolerant: a document whose current-version
// snapshot is unreadable is kept with its history intact — historical
// versions that reach an intact snapshot still reconstruct — and only
// operations needing the cached current version (Current, Update) fail,
// with the recovery error in the chain. Fsck reports such damage.
func Open(cfg Config) (*Store, error) {
	s := New(cfg)
	meta := s.pages.Meta()
	deltas := s.pages.MetaDeltas()
	if len(meta) == 0 && len(deltas) == 0 {
		return s, nil
	}
	if err := s.restoreMeta(meta, deltas); err != nil {
		return nil, err
	}
	return s, nil
}

// restoreMeta rebuilds the document table from the last full metadata
// snapshot plus any later per-document delta records, applied in log order.
func (s *Store) restoreMeta(meta []byte, deltas [][]byte) error {
	var mf metaFile
	if len(meta) == 0 {
		// No full snapshot yet: the whole table lives in delta records.
		mf.Format = metaFormat
	} else if err := json.Unmarshal(meta, &mf); err != nil {
		return fmt.Errorf("store: recover: parsing metadata snapshot: %w", err)
	}
	if mf.Format != metaFormat {
		return fmt.Errorf("store: recover: metadata format %d, want %d", mf.Format, metaFormat)
	}
	byID := make(map[int64]int, len(mf.Docs))
	withdrawn := make(map[int64]bool)
	for i, md := range mf.Docs {
		byID[md.ID] = i
	}
	for i, raw := range deltas {
		var del metaDelta
		if err := json.Unmarshal(raw, &del); err != nil {
			return fmt.Errorf("store: recover: parsing metadata delta %d: %w", i, err)
		}
		if del.Format != metaFormat {
			return fmt.Errorf("store: recover: metadata delta %d format %d, want %d", i, del.Format, metaFormat)
		}
		if del.NextDoc > mf.NextDoc {
			mf.NextDoc = del.NextDoc
		}
		withdrawn[del.Doc.ID] = len(del.Doc.Versions) == 0
		if j, ok := byID[del.Doc.ID]; ok {
			mf.Docs[j] = del.Doc
		} else {
			byID[del.Doc.ID] = len(mf.Docs)
			mf.Docs = append(mf.Docs, del.Doc)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextDoc = model.DocID(mf.NextDoc)
	for _, md := range mf.Docs {
		if withdrawn[md.ID] {
			continue
		}
		d := &docEntry{
			id:      model.DocID(md.ID),
			name:    md.Name,
			nextXID: model.XID(md.NextXID),
			created: model.Time(md.Created),
			deleted: model.Time(md.Deleted),
			rootXID: model.XID(md.RootXID),
		}
		for _, mv := range md.Versions {
			d.versions = append(d.versions, VersionInfo{
				Ver:         model.VersionNo(mv.Ver),
				Stamp:       model.Time(mv.Stamp),
				End:         model.Time(mv.End),
				DeltaToNext: mv.Delta.ref(),
				Snapshot:    mv.Snap.ref(),
				Pruned:      mv.Pruned,
			})
		}
		if len(d.versions) == 0 {
			return fmt.Errorf("store: recover: doc %d (%q) has no versions", md.ID, md.Name)
		}
		// Reload the cached current version from its snapshot extent. The
		// current version always has one; if it is unreadable, degrade
		// rather than refuse to open.
		cur := d.curInfo()
		if data, err := s.readExtentCtx(context.Background(), cur.Snapshot); err != nil {
			d.curErr = fmt.Errorf("store: recover doc %d (%q): current snapshot: %w", md.ID, md.Name, err)
		} else if tree, err := xmltree.Unmarshal(data); err != nil {
			d.curErr = fmt.Errorf("store: recover doc %d (%q): parsing current snapshot: %w", md.ID, md.Name, err)
		} else {
			// The current version lives as long as the store: give it
			// its own strings rather than pin the decoded snapshot.
			d.cur = tree.CloneOwned()
		}
		s.docs[d.id] = d
		// The name table maps to the latest incarnation: later docs win.
		if prev, ok := s.byName[d.name]; !ok || d.id > prev {
			s.byName[d.name] = d.id
		}
	}
	return nil
}
