package fti

import (
	"sort"
	"sync"

	"txmldb/internal/diff"
	"txmldb/internal/model"
	"txmldb/internal/xmltree"
)

// VersionIndex indexes the contents of document versions — the alternative
// the paper selects (Section 7.2). Every posting carries a validity
// interval: a word occurrence opens a posting at the version that
// introduced it and closes it at the version that removed it.
//
// A posting exists per (document, element, word, source); multiple
// occurrences of the same word under one element share a posting with a
// reference count, so removing one of two occurrences does not end the
// posting's validity.
//
// Upkeep is O(change): AddVersion re-evaluates only the elements the
// completed delta names (see scriptScope) and leaves every other open
// posting alone.
type VersionIndex struct {
	mu    sync.RWMutex
	words map[string][]Posting
	// open holds the currently valid postings of every document, by
	// element.
	open map[model.DocID]*docOpen
	// liveByWord holds, per word, the indexes of postings that were open
	// when last appended; closed entries are compacted away lazily on
	// lookup. It makes current-state lookups cost O(live) instead of
	// O(history) — one of the "new types of indexes" the paper's
	// Section 8 calls for.
	liveByWord map[string][]int
}

// docOpen is one document's open postings, keyed by element XID.
type docOpen struct {
	elems map[model.XID][]openSlot
	// stamp is the time of the version the open postings describe, valid
	// once synced. A script is applied incrementally only on top of the
	// version it starts from; after a checkpoint restore, or when versions
	// were skipped, the next version is indexed whole.
	stamp  model.Time
	synced bool
}

// openSlot is the open posting of one word under one element, with its
// occurrence count and the signature of the element's path when it
// opened. An element's slots are sorted by (src, word).
type openSlot struct {
	src     Source
	word    string
	idx     int // position in words[word]
	count   int
	pathSig uint64
}

// NewVersionIndex returns an empty version-content index.
func NewVersionIndex() *VersionIndex {
	return &VersionIndex{
		words:      make(map[string][]Posting),
		open:       make(map[model.DocID]*docOpen),
		liveByWord: make(map[string][]int),
	}
}

// Name implements Index.
func (ix *VersionIndex) Name() string { return "version-content" }

// AddVersion implements Index. It re-evaluates the elements whose words
// or path the version can have changed: for each, postings of vanished
// occurrences close, new occurrences open postings, and a changed ancestor
// chain (a move) closes and reopens them all so the stored path stays
// valid for the posting's span. Elements gone from the version close all
// their postings. With the completed delta that produced newRoot the
// affected set is the one scriptScope derives; for an initial version
// (nil script), or one that does not follow the indexed version, it is
// every element of newRoot plus every element with open postings.
func (ix *VersionIndex) AddVersion(doc model.DocID, newRoot *xmltree.Node, script *diff.Script, t model.Time) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	d := ix.open[doc]
	if d == nil {
		d = &docOpen{elems: make(map[model.XID][]openSlot)}
		ix.open[doc] = d
	}
	sc, ok := scriptScope(d, newRoot, script)
	if !ok {
		sc = wholeScope(d, newRoot)
	}
	for _, e := range sc.elems {
		ix.reindexElem(doc, d, e.x, e.n, t)
	}
	d.stamp, d.synced = t, true
	return nil
}

// scope is the set of elements an AddVersion re-evaluates, in the order
// found. n is the element in the new version, nil if it is gone.
type scope struct {
	elems []scopeElem
	seen  map[model.XID]bool
}

type scopeElem struct {
	x model.XID
	n *xmltree.Node
}

func (sc *scope) add(x model.XID, n *xmltree.Node) {
	if sc.seen == nil {
		sc.seen = make(map[model.XID]bool)
	}
	if !sc.seen[x] {
		sc.seen[x] = true
		sc.elems = append(sc.elems, scopeElem{x, n})
	}
}

// wholeScope is every element of root plus every element of the document
// with open postings.
func wholeScope(d *docOpen, root *xmltree.Node) scope {
	var sc scope
	root.Walk(func(n *xmltree.Node) bool {
		if n.IsElement() {
			sc.add(n.XID, n)
		}
		return true
	})
	for x := range d.elems {
		sc.add(x, nil)
	}
	return sc
}

// The roles an XID named by a script plays for the version index.
const (
	askElem    = iota // an element whose own words changed
	askText           // a text node: its parent element's words changed
	askSubtree        // an inserted or moved subtree: every element's path
)

// scriptScope derives the affected elements from the completed delta:
// update, attribute and rename targets; the parent element of a changed
// text node; the old and new parents of inserted, moved and deleted
// nodes; every element of an inserted subtree, or of a subtree moved to
// another parent, looked up in newRoot; and every element of a deleted
// subtree, which closes. It reports false when the script cannot drive
// the upkeep — nil, not starting from the indexed version, an insert or
// delete without its payload, or a named node missing from newRoot — and
// the caller indexes the whole version instead.
func scriptScope(d *docOpen, newRoot *xmltree.Node, script *diff.Script) (scope, bool) {
	var sc scope
	if script == nil || !d.synced || script.FromStamp != d.stamp {
		return sc, false
	}
	type ask struct {
		x    model.XID
		role int
	}
	var asks []ask
	gone := make(map[model.XID]bool)
	for _, op := range script.Ops {
		switch op.Kind {
		case diff.OpInsert:
			if op.Node == nil {
				return sc, false
			}
			asks = append(asks, ask{op.Parent, askElem}, ask{op.Node.XID, askSubtree})
		case diff.OpDelete:
			if op.Node == nil {
				return sc, false
			}
			asks = append(asks, ask{op.OldParent, askElem})
			op.Node.Walk(func(n *xmltree.Node) bool {
				gone[n.XID] = true
				if n.IsElement() {
					sc.add(n.XID, nil)
				}
				return true
			})
		case diff.OpUpdateText:
			asks = append(asks, ask{op.XID, askText})
		case diff.OpUpdateAttrs, diff.OpRename:
			asks = append(asks, ask{op.XID, askElem})
		case diff.OpMove:
			// A path is the chain of ancestor XIDs, blind to positions: a
			// move among siblings changes no posting.
			if op.Parent != op.OldParent {
				asks = append(asks, ask{op.Parent, askElem}, ask{op.OldParent, askElem}, ask{op.XID, askSubtree})
			}
		}
	}
	want := make(map[model.XID]*xmltree.Node, len(asks))
	for _, a := range asks {
		if !gone[a.x] {
			want[a.x] = nil
		}
	}
	locate(newRoot, script.ToStamp, want)
	for _, a := range asks {
		if gone[a.x] {
			continue // deleted by a later op; its elements close above
		}
		n := want[a.x]
		if n == nil {
			return sc, false
		}
		switch {
		case a.role == askText && n.Parent != nil:
			sc.add(n.Parent.XID, n.Parent)
		case a.role == askSubtree:
			n.Walk(func(e *xmltree.Node) bool {
				if e.IsElement() {
					sc.add(e.XID, e)
				}
				return true
			})
		case n.IsElement():
			sc.add(n.XID, n)
		}
	}
	return sc, true
}

// locate fills want with the nodes of root carrying its XIDs. Diff stamps
// every node it touches, and every ancestor of one, with the new
// version's stamp, so the search descends only into children stamped at
// stamp; a node it does not find stays nil.
func locate(root *xmltree.Node, stamp model.Time, want map[model.XID]*xmltree.Node) {
	if len(want) == 0 {
		return
	}
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		if _, ok := want[n.XID]; ok {
			want[n.XID] = n
		}
		for _, c := range n.Children {
			if c.Stamp == stamp {
				walk(c)
			}
		}
	}
	walk(root)
}

// reindexElem brings the open postings of element x in line with its
// node n in the new version (nil: the element is gone).
func (ix *VersionIndex) reindexElem(doc model.DocID, d *docOpen, x model.XID, n *xmltree.Node, t model.Time) {
	slots := d.elems[x]
	if n == nil {
		for _, s := range slots {
			ix.closeLocked(s.word, s.idx, t)
		}
		delete(d.elems, x)
		return
	}
	occ := elementOccurrences(n)
	sig := pathSigOf(n)
	var path []model.XID
	next := make([]openSlot, 0, len(occ))
	open := func(o occCount) {
		if path == nil {
			path = pathOf(n)
		}
		ix.words[o.word] = append(ix.words[o.word], Posting{
			Doc:  doc,
			X:    x,
			Path: path,
			Src:  o.src,
			Span: model.Interval{Start: t, End: model.Forever},
		})
		idx := len(ix.words[o.word]) - 1
		ix.liveByWord[o.word] = append(ix.liveByWord[o.word], idx)
		next = append(next, openSlot{src: o.src, word: o.word, idx: idx, count: o.count, pathSig: sig})
	}
	i, k := 0, 0
	for i < len(slots) || k < len(occ) {
		var c int
		switch {
		case i == len(slots):
			c = 1
		case k == len(occ):
			c = -1
		default:
			c = compareOcc(slots[i].src, slots[i].word, occ[k].src, occ[k].word)
		}
		switch {
		case c < 0: // the occurrence vanished
			ix.closeLocked(slots[i].word, slots[i].idx, t)
			i++
		case c > 0: // a new occurrence
			open(occ[k])
			k++
		case slots[i].pathSig == sig: // still there, same path
			s := slots[i]
			s.count = occ[k].count
			next = append(next, s)
			i++
			k++
		default: // still there, but the element moved
			ix.closeLocked(slots[i].word, slots[i].idx, t)
			open(occ[k])
			i++
			k++
		}
	}
	d.elems[x] = next
}

// occCount is one distinct word occurrence of an element with its count.
type occCount struct {
	src   Source
	word  string
	count int
}

func compareOcc(as Source, aw string, bs Source, bw string) int {
	switch {
	case as != bs:
		return int(as) - int(bs)
	case aw < bw:
		return -1
	case aw > bw:
		return 1
	}
	return 0
}

// elementOccurrences returns the distinct word occurrences an element
// owns — its own (nodeOccurrences) and those of its text children —
// sorted by (src, word) and counted.
func elementOccurrences(n *xmltree.Node) []occCount {
	all := nodeOccurrences(n)
	for _, c := range n.Children {
		if c.IsText() {
			all = append(all, nodeOccurrences(c)...)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		return compareOcc(all[i].src, all[i].word, all[j].src, all[j].word) < 0
	})
	var out []occCount
	for i, o := range all {
		if i > 0 && o.src == all[i-1].src && o.word == all[i-1].word {
			out[len(out)-1].count++
		} else {
			out = append(out, occCount{src: o.src, word: o.word, count: 1})
		}
	}
	return out
}

// pathSigOf hashes the element's XID chain, self first, root last.
func pathSigOf(n *xmltree.Node) uint64 {
	var h uint64 = 1469598103934665603
	for p := n; p != nil; p = p.Parent {
		h ^= uint64(p.XID)
		h *= 1099511628211
	}
	return h
}

// closeLocked ends the posting's validity at t. A posting can end in the
// same instant it started (element reindexed within one version
// transition); such empty-span postings are filtered out by the lookups.
func (ix *VersionIndex) closeLocked(word string, idx int, t model.Time) {
	p := &ix.words[word][idx]
	p.Span.End = t
	// The liveByWord entry is compacted away by the next Lookup.
}

// DeleteDoc implements Index.
func (ix *VersionIndex) DeleteDoc(doc model.DocID, t model.Time) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if d := ix.open[doc]; d != nil {
		for _, slots := range d.elems {
			for _, s := range slots {
				ix.closeLocked(s.word, s.idx, t)
			}
		}
	}
	delete(ix.open, doc)
	return nil
}

// Lookup implements Index: postings valid in the current database state,
// served from the live list without scanning the word's history. Entries
// closed since the last lookup are compacted away as a side effect, so the
// amortized cost is O(live).
func (ix *VersionIndex) Lookup(word string) []Posting {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	live := ix.liveByWord[word]
	out := make([]Posting, 0, len(live))
	compacted := live[:0]
	for _, idx := range live {
		p := ix.words[word][idx]
		if p.Span.End != model.Forever {
			continue
		}
		compacted = append(compacted, idx)
		out = append(out, p)
	}
	if len(compacted) != len(live) {
		ix.liveByWord[word] = compacted
	}
	return out
}

// LookupT implements Index: postings valid at time t.
func (ix *VersionIndex) LookupT(word string, t model.Time) []Posting {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var out []Posting
	for _, p := range ix.words[word] {
		if p.Span.Contains(t) {
			out = append(out, p)
		}
	}
	return out
}

// LookupH implements Index: all postings over the whole history. Postings
// with an empty span (opened and closed by the same version transition)
// are skipped.
func (ix *VersionIndex) LookupH(word string) []Posting {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var out []Posting
	for _, p := range ix.words[word] {
		if !p.Span.Empty() {
			out = append(out, p)
		}
	}
	return out
}

// Stats implements Index.
func (ix *VersionIndex) Stats() Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var st Stats
	st.Words = len(ix.words)
	for w, ps := range ix.words {
		st.Postings += len(ps)
		for _, p := range ps {
			if p.Span.End == model.Forever {
				st.Open++
			}
			st.Bytes += postingBytes(w, len(p.Path))
		}
	}
	return st
}
