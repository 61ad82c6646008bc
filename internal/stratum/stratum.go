// Package stratum implements the baseline the paper argues against in its
// introduction: "store all versions of all documents in the database, and
// use a middleware layer to convert temporal query language statements into
// conventional statements, executed by an underlying database system (also
// called a stratum approach)".
//
// Every document version is stored complete (no deltas, no snapshots
// economy) in the paged store, and every version is indexed as its own
// document in a conventional, non-temporal full-text index whose postings
// carry no validity intervals. The middleware layer turns temporal
// operations into version arithmetic: a snapshot lookup fetches the whole
// posting list (all versions) and keeps the entries whose version happens
// to be the one valid at the requested time.
//
// Experiment C1 compares this baseline with the native engine on storage
// size, index size and query cost.
package stratum

import (
	"fmt"
	"sort"
	"sync"

	"txmldb/internal/diff"
	"txmldb/internal/fti"
	"txmldb/internal/model"
	"txmldb/internal/pagestore"
	"txmldb/internal/pattern"
	"txmldb/internal/xmltree"
)

// DB is the stratum-approach database.
type DB struct {
	mu      sync.RWMutex
	pages   *pagestore.Store
	docs    map[model.DocID]*docEntry
	byName  map[string]model.DocID
	nextDoc model.DocID
	index   *flatIndex
	// PostingsScanned counts index entries touched by lookups, the
	// middleware overhead measure.
	postingsScanned int64
}

type docEntry struct {
	id       model.DocID
	name     string
	nextXID  model.XID
	deleted  model.Time
	versions []versionEntry
}

type versionEntry struct {
	stamp model.Time
	end   model.Time
	ref   pagestore.Ref
}

// New returns an empty stratum database.
func New(pages pagestore.Config) *DB {
	db := &DB{
		pages:  pagestore.New(pages),
		docs:   make(map[model.DocID]*docEntry),
		byName: make(map[string]model.DocID),
	}
	db.index = &flatIndex{db: db, words: make(map[string][]vposting)}
	return db
}

// Pages exposes the simulated disk for measurements.
func (db *DB) Pages() *pagestore.Store { return db.pages }

// Put stores the first version of a document.
func (db *DB) Put(name string, tree *xmltree.Node, t model.Time) (model.DocID, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if prev, ok := db.byName[name]; ok && db.docs[prev].deleted == model.Forever {
		return 0, fmt.Errorf("stratum: document %q already exists", name)
	}
	db.nextDoc++
	d := &docEntry{id: db.nextDoc, name: name, deleted: model.Forever}
	db.docs[d.id] = d
	db.byName[name] = d.id
	if err := db.storeVersion(d, tree, t); err != nil {
		return 0, err
	}
	return d.id, nil
}

// Update stores a complete new version of the document.
func (db *DB) Update(id model.DocID, tree *xmltree.Node, t model.Time) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	d, ok := db.docs[id]
	if !ok {
		return fmt.Errorf("stratum: unknown document %d", id)
	}
	if d.deleted != model.Forever {
		return fmt.Errorf("stratum: document %d is deleted", id)
	}
	if n := len(d.versions); n > 0 && t <= d.versions[n-1].stamp {
		return fmt.Errorf("stratum: timestamp %s not newer than current", t)
	}
	return db.storeVersion(d, tree, t)
}

// storeVersion assigns fresh XIDs (a conventional store has no
// cross-version identity — one of the stratum approach's weaknesses, see
// Section 3.2), serializes the complete version and indexes it.
func (db *DB) storeVersion(d *docEntry, tree *xmltree.Node, t model.Time) error {
	if err := tree.Validate(); err != nil {
		return fmt.Errorf("stratum: %w", err)
	}
	cp := tree.Clone()
	cp.Walk(func(n *xmltree.Node) bool {
		d.nextXID++
		n.XID = d.nextXID
		n.Stamp = t
		return true
	})
	b := db.pages.Begin()
	ref := b.Write(int(d.id), xmltree.Marshal(cp))
	if err := b.Commit(); err != nil {
		return fmt.Errorf("stratum: %w", err)
	}
	if n := len(d.versions); n > 0 {
		d.versions[n-1].end = t
	}
	d.versions = append(d.versions, versionEntry{stamp: t, end: model.Forever, ref: ref})
	db.index.addVersion(d.id, model.VersionNo(len(d.versions)), cp)
	return nil
}

// Delete marks the document deleted.
func (db *DB) Delete(id model.DocID, t model.Time) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	d, ok := db.docs[id]
	if !ok {
		return fmt.Errorf("stratum: unknown document %d", id)
	}
	if d.deleted != model.Forever {
		return fmt.Errorf("stratum: document %d already deleted", id)
	}
	d.deleted = t
	d.versions[len(d.versions)-1].end = t
	return nil
}

// Lookup resolves a document name.
func (db *DB) Lookup(name string) (model.DocID, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	id, ok := db.byName[name]
	return id, ok
}

// versionAt returns the index (0-based) of the version valid at t, or -1.
func (d *docEntry) versionAt(t model.Time) int {
	i := sort.Search(len(d.versions), func(i int) bool { return d.versions[i].stamp > t }) - 1
	if i < 0 {
		return -1
	}
	v := d.versions[i]
	if t < v.stamp || t >= v.end {
		return -1
	}
	return i
}

// ReadVersionAt fetches and parses the complete version valid at t — the
// stratum approach's one structural advantage: no delta chain to apply.
func (db *DB) ReadVersionAt(id model.DocID, t model.Time) (*xmltree.Node, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	d, ok := db.docs[id]
	if !ok {
		return nil, fmt.Errorf("stratum: unknown document %d", id)
	}
	i := d.versionAt(t)
	if i < 0 {
		return nil, fmt.Errorf("stratum: no version of %d valid at %s", id, t)
	}
	data, err := db.pages.Read(d.versions[i].ref)
	if err != nil {
		return nil, err
	}
	return xmltree.Unmarshal(data)
}

// History reads all versions valid in the interval, most recent first.
func (db *DB) History(id model.DocID, iv model.Interval) ([]*xmltree.Node, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	d, ok := db.docs[id]
	if !ok {
		return nil, fmt.Errorf("stratum: unknown document %d", id)
	}
	var out []*xmltree.Node
	for i := len(d.versions) - 1; i >= 0; i-- {
		v := d.versions[i]
		if !(model.Interval{Start: v.stamp, End: v.end}).Overlaps(iv) {
			continue
		}
		data, err := db.pages.Read(v.ref)
		if err != nil {
			return nil, err
		}
		tree, err := xmltree.Unmarshal(data)
		if err != nil {
			return nil, err
		}
		out = append(out, tree)
	}
	return out, nil
}

// SnapshotScan is the middleware's TPatternScan: a conventional pattern
// scan whose posting lists span the whole history, filtered down to the
// versions valid at t.
func (db *DB) SnapshotScan(p *pattern.PNode, t model.Time) ([]pattern.Match, error) {
	return pattern.ScanT(&indexAdapter{db: db}, p, t)
}

// AllScan is the middleware's TPatternScanAll.
func (db *DB) AllScan(p *pattern.PNode) ([]pattern.Match, error) {
	return pattern.ScanAll(&indexAdapter{db: db}, p)
}

// PostingsScanned returns how many raw index entries lookups have touched.
func (db *DB) PostingsScanned() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.postingsScanned
}

// IndexStats reports the conventional index's size.
func (db *DB) IndexStats() fti.Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var st fti.Stats
	st.Words = len(db.index.words)
	for w, ps := range db.index.words {
		st.Postings += len(ps)
		for _, p := range ps {
			st.Bytes += int64(len(w)) + 40 + int64(8*len(p.path))
		}
	}
	return st
}

// --- conventional index + middleware adapter ---

// vposting is a posting of the non-temporal index: one word occurrence in
// one stored version document. No validity interval — the version number
// IS the document identity, as in a conventional engine.
type vposting struct {
	doc  model.DocID
	ver  model.VersionNo
	x    model.XID
	path []model.XID
	src  fti.Source
}

type flatIndex struct {
	db    *DB
	words map[string][]vposting
}

func (ix *flatIndex) addVersion(doc model.DocID, ver model.VersionNo, root *xmltree.Node) {
	root.Walk(func(n *xmltree.Node) bool {
		switch {
		case n.IsElement():
			ix.add(n.Name, vposting{doc: doc, ver: ver, x: n.XID, path: pathOf(n), src: fti.SrcName})
			for _, a := range n.Attrs {
				for _, w := range fti.Tokenize(a.Name) {
					ix.add(w, vposting{doc: doc, ver: ver, x: n.XID, path: pathOf(n), src: fti.SrcAttr})
				}
				for _, w := range fti.Tokenize(a.Value) {
					ix.add(w, vposting{doc: doc, ver: ver, x: n.XID, path: pathOf(n), src: fti.SrcAttr})
				}
			}
		case n.IsText() && n.Parent != nil:
			for _, w := range fti.Tokenize(n.Value) {
				ix.add(w, vposting{doc: doc, ver: ver, x: n.Parent.XID, path: pathOf(n.Parent), src: fti.SrcText})
			}
		}
		return true
	})
}

func (ix *flatIndex) add(word string, p vposting) {
	// Deduplicate repeated words under one element within the version.
	ps := ix.words[word]
	for i := len(ps) - 1; i >= 0; i-- {
		if ps[i].doc != p.doc || ps[i].ver != p.ver {
			break
		}
		if ps[i].x == p.x && ps[i].src == p.src {
			return
		}
	}
	ix.words[word] = append(ps, p)
}

func pathOf(n *xmltree.Node) []model.XID {
	var out []model.XID
	for p := n; p != nil; p = p.Parent {
		out = append(out, p.XID)
	}
	return out
}

// indexAdapter exposes the conventional index through the temporal
// interface — this is the middleware layer. Every lookup walks the whole
// posting list (all versions) and synthesizes validity from the delta
// index, which is exactly the overhead the stratum approach pays.
type indexAdapter struct {
	db *DB
}

func (a *indexAdapter) Name() string { return "stratum-middleware" }

// AddVersion implements fti.Index; maintenance goes through DB.Put/Update.
func (a *indexAdapter) AddVersion(model.DocID, *xmltree.Node, *diff.Script, model.Time) error {
	return fmt.Errorf("stratum: maintenance goes through DB.Put/Update")
}

func (a *indexAdapter) postings(word string, keep func(d *docEntry, v vposting) (model.Interval, bool)) []fti.Posting {
	a.db.mu.RLock()
	defer a.db.mu.RUnlock()
	var out []fti.Posting
	for _, vp := range a.db.index.words[word] {
		a.db.postingsScanned++
		d := a.db.docs[vp.doc]
		span, ok := keep(d, vp)
		if !ok {
			continue
		}
		out = append(out, fti.Posting{
			Doc: vp.doc, X: vp.x, Path: vp.path, Src: vp.src, Span: span,
		})
	}
	return out
}

// Lookup keeps postings of each live document's last version.
func (a *indexAdapter) Lookup(word string) []fti.Posting {
	return a.postings(word, func(d *docEntry, vp vposting) (model.Interval, bool) {
		if d.deleted != model.Forever || int(vp.ver) != len(d.versions) {
			return model.Interval{}, false
		}
		v := d.versions[vp.ver-1]
		return model.Interval{Start: v.stamp, End: v.end}, true
	})
}

// LookupT keeps postings whose version is the one valid at t.
func (a *indexAdapter) LookupT(word string, t model.Time) []fti.Posting {
	return a.postings(word, func(d *docEntry, vp vposting) (model.Interval, bool) {
		i := d.versionAt(t)
		if i < 0 || model.VersionNo(i+1) != vp.ver {
			return model.Interval{}, false
		}
		v := d.versions[i]
		return model.Interval{Start: v.stamp, End: v.end}, true
	})
}

// LookupH keeps everything, one posting per version occurrence.
func (a *indexAdapter) LookupH(word string) []fti.Posting {
	return a.postings(word, func(d *docEntry, vp vposting) (model.Interval, bool) {
		v := d.versions[vp.ver-1]
		return model.Interval{Start: v.stamp, End: v.end}, true
	})
}

func (a *indexAdapter) DeleteDoc(model.DocID, model.Time) error {
	return fmt.Errorf("stratum: maintenance goes through DB.Delete")
}

func (a *indexAdapter) Stats() fti.Stats { return a.db.IndexStats() }
