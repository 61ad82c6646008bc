package fti

import (
	"sort"
	"sync"

	"txmldb/internal/diff"
	"txmldb/internal/model"
	"txmldb/internal/xmltree"
)

// DeltaIndex indexes the contents of the delta documents — the second
// alternative of Section 7.2: "indexing the operations, e.g., update, move
// and delete information directly in the text index".
//
// Content words are stored as insert/delete event streams per element; a
// temporal lookup replays the events. In addition, every operation
// contributes postings for its operation keyword ("insert", "delete",
// "update", "move", "rename"), which is what lets queries such as
// delete/restaurant/name/Napoli be answered directly — and what the paper
// predicts "would result in extremely many instances of the delta
// keywords": experiment C5 measures exactly that.
//
// Known limitation, shared with the paper's sketch: a pure move does not
// change word containment, so it produces only an operation-keyword
// posting; the paths stored with older insert events are not rewritten.
type DeltaIndex struct {
	mu    sync.RWMutex
	words map[string][]Event
	// live tracks occurrence counts so that removing one of two equal
	// words under an element does not emit a spurious delete event.
	live map[model.DocID]map[occKey]*liveEntry
	// opEvents are the operation-keyword postings, kept per keyword.
	opEvents map[string][]OpEvent
}

type liveEntry struct {
	count int
	path  []model.XID
}

// Event is one content change recorded by the delta index.
type Event struct {
	Doc    model.DocID
	X      model.XID
	Path   []model.XID
	Src    Source
	T      model.Time
	Insert bool // true = word appeared, false = word disappeared
}

// OpEvent is one operation-keyword posting: operation kind plus the target
// element and version timestamp, supporting change-oriented queries.
type OpEvent struct {
	Doc model.DocID
	X   model.XID
	T   model.Time
}

// NewDeltaIndex returns an empty delta-content index.
func NewDeltaIndex() *DeltaIndex {
	return &DeltaIndex{
		words:    make(map[string][]Event),
		live:     make(map[model.DocID]map[occKey]*liveEntry),
		opEvents: make(map[string][]OpEvent),
	}
}

// Name implements Index.
func (ix *DeltaIndex) Name() string { return "delta-content" }

// AddVersion implements Index.
func (ix *DeltaIndex) AddVersion(doc model.DocID, newRoot *xmltree.Node, script *diff.Script, t model.Time) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	docLive := ix.live[doc]
	if docLive == nil {
		docLive = make(map[occKey]*liveEntry)
		ix.live[doc] = docLive
	}
	if script == nil {
		// Initial version: everything is an insertion.
		ix.insertSubtree(doc, docLive, newRoot, t)
		ix.opEvents["insert"] = append(ix.opEvents["insert"], OpEvent{Doc: doc, X: newRoot.XID, T: t})
		return nil
	}
	idx := make(map[model.XID]*xmltree.Node)
	newRoot.Walk(func(n *xmltree.Node) bool {
		idx[n.XID] = n
		return true
	})
	for _, op := range script.Ops {
		ix.opEvents[op.Kind.String()] = append(ix.opEvents[op.Kind.String()],
			OpEvent{Doc: doc, X: opTarget(op), T: t})
		switch op.Kind {
		case diff.OpInsert:
			// Index from the stored tree so paths reflect the new version.
			if n := idx[op.Node.XID]; n != nil {
				ix.insertSubtree(doc, docLive, n, t)
			}
		case diff.OpDelete:
			for _, o := range subtreeOccurrences(op.Node, op.OldParent) {
				ix.removeOcc(doc, docLive, occKey{x: o.x, src: o.src, word: o.word}, t)
			}
		case diff.OpUpdateText:
			n := idx[op.XID]
			if n == nil || n.Parent == nil {
				continue
			}
			owner := n.Parent
			for _, w := range Tokenize(op.OldValue) {
				ix.removeOcc(doc, docLive, occKey{x: owner.XID, src: SrcText, word: w}, t)
			}
			for _, w := range Tokenize(op.NewValue) {
				ix.addOcc(doc, docLive, occKey{x: owner.XID, src: SrcText, word: w}, pathOf(owner), t)
			}
		case diff.OpUpdateAttrs:
			n := idx[op.XID]
			if n == nil {
				continue
			}
			for _, a := range op.OldAttrs {
				for _, w := range append(Tokenize(a.Name), Tokenize(a.Value)...) {
					ix.removeOcc(doc, docLive, occKey{x: op.XID, src: SrcAttr, word: w}, t)
				}
			}
			for _, a := range op.NewAttrs {
				for _, w := range append(Tokenize(a.Name), Tokenize(a.Value)...) {
					ix.addOcc(doc, docLive, occKey{x: op.XID, src: SrcAttr, word: w}, pathOf(n), t)
				}
			}
		case diff.OpRename:
			n := idx[op.XID]
			if n == nil {
				continue
			}
			ix.removeOcc(doc, docLive, occKey{x: op.XID, src: SrcName, word: op.OldValue}, t)
			ix.addOcc(doc, docLive, occKey{x: op.XID, src: SrcName, word: op.NewValue}, pathOf(n), t)
		case diff.OpMove:
			// Containment unchanged; only the keyword posting above.
		}
	}
	return nil
}

func opTarget(op diff.Op) model.XID {
	if op.Kind == diff.OpInsert {
		return op.Node.XID
	}
	return op.XID
}

func (ix *DeltaIndex) insertSubtree(doc model.DocID, docLive map[occKey]*liveEntry, n *xmltree.Node, t model.Time) {
	n.Walk(func(d *xmltree.Node) bool {
		for _, o := range nodeOccurrences(d) {
			owner := d
			if d.IsText() {
				owner = d.Parent
			}
			ix.addOcc(doc, docLive, occKey{x: o.x, src: o.src, word: o.word}, pathOf(owner), t)
		}
		return true
	})
}

func (ix *DeltaIndex) addOcc(doc model.DocID, docLive map[occKey]*liveEntry, key occKey, path []model.XID, t model.Time) {
	ent := docLive[key]
	if ent != nil {
		ent.count++
		return
	}
	docLive[key] = &liveEntry{count: 1, path: path}
	ix.words[key.word] = append(ix.words[key.word], Event{
		Doc: doc, X: key.x, Path: path, Src: key.src, T: t, Insert: true,
	})
}

func (ix *DeltaIndex) removeOcc(doc model.DocID, docLive map[occKey]*liveEntry, key occKey, t model.Time) {
	ent := docLive[key]
	if ent == nil {
		return // occurrence unknown; tolerate partial information
	}
	ent.count--
	if ent.count > 0 {
		return
	}
	delete(docLive, key)
	ix.words[key.word] = append(ix.words[key.word], Event{
		Doc: doc, X: key.x, Path: ent.path, Src: key.src, T: t, Insert: false,
	})
}

// DeleteDoc implements Index.
func (ix *DeltaIndex) DeleteDoc(doc model.DocID, t model.Time) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	docLive := ix.live[doc]
	keys := make([]occKey, 0, len(docLive))
	for key := range docLive {
		keys = append(keys, key)
	}
	// Deterministic event order for reproducible benchmarks.
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.x != b.x {
			return a.x < b.x
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.word < b.word
	})
	for _, key := range keys {
		ent := docLive[key]
		ix.words[key.word] = append(ix.words[key.word], Event{
			Doc: doc, X: key.x, Path: ent.path, Src: key.src, T: t, Insert: false,
		})
	}
	delete(ix.live, doc)
	ix.opEvents["deletedoc"] = append(ix.opEvents["deletedoc"], OpEvent{Doc: doc, T: t})
	return nil
}

// replay converts the word's event stream into validity-interval postings.
func (ix *DeltaIndex) replay(word string) []Posting {
	events := ix.words[word]
	type pending struct {
		idx int
	}
	open := make(map[struct {
		doc model.DocID
		x   model.XID
		src Source
	}]pending)
	var out []Posting
	for _, ev := range events {
		key := struct {
			doc model.DocID
			x   model.XID
			src Source
		}{ev.Doc, ev.X, ev.Src}
		if ev.Insert {
			if _, dup := open[key]; dup {
				continue
			}
			out = append(out, Posting{
				Doc: ev.Doc, X: ev.X, Path: ev.Path, Src: ev.Src,
				Span: model.Interval{Start: ev.T, End: model.Forever},
			})
			open[key] = pending{idx: len(out) - 1}
		} else if p, ok := open[key]; ok {
			out[p.idx].Span.End = ev.T
			delete(open, key)
		}
	}
	return out
}

// Lookup implements Index. Replaying the whole event stream on every lookup
// is the cost profile the paper predicts for delta-content indexing: "it is
// less efficient for other access patterns, e.g., query on snapshot
// contents".
func (ix *DeltaIndex) Lookup(word string) []Posting {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var out []Posting
	for _, p := range ix.replay(word) {
		if p.Span.End == model.Forever {
			out = append(out, p)
		}
	}
	return out
}

// LookupT implements Index.
func (ix *DeltaIndex) LookupT(word string, t model.Time) []Posting {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var out []Posting
	for _, p := range ix.replay(word) {
		if p.Span.Contains(t) {
			out = append(out, p)
		}
	}
	return out
}

// LookupH implements Index.
func (ix *DeltaIndex) LookupH(word string) []Posting {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var out []Posting
	for _, p := range ix.replay(word) {
		if !p.Span.Empty() {
			out = append(out, p)
		}
	}
	return out
}

// Events exposes the raw change events of a word, the access path for
// change-oriented queries ("when did Napoli disappear?").
func (ix *DeltaIndex) Events(word string) []Event {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return append([]Event(nil), ix.words[word]...)
}

// OpEvents returns the postings of an operation keyword, e.g. "delete".
func (ix *DeltaIndex) OpEvents(kind string) []OpEvent {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return append([]OpEvent(nil), ix.opEvents[kind]...)
}

// Stats implements Index.
func (ix *DeltaIndex) Stats() Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var st Stats
	st.Words = len(ix.words)
	for w, evs := range ix.words {
		st.Postings += len(evs)
		for _, ev := range evs {
			st.Bytes += postingBytes(w, len(ev.Path))
		}
	}
	for kw, evs := range ix.opEvents {
		st.Postings += len(evs)
		st.OpKeywordPostings += len(evs)
		st.Bytes += int64(len(evs)) * postingBytes(kw, 0)
	}
	for _, docLive := range ix.live {
		st.Open += len(docLive)
	}
	return st
}

// BothIndex maintains a VersionIndex and a DeltaIndex side by side — the
// paper's third alternative: "efficient for both snapshot and change based
// queries, but will result in larger indexes and higher update costs".
// Lookups are served by the version index; change events by the delta
// index.
type BothIndex struct {
	Version *VersionIndex
	Delta   *DeltaIndex
}

// NewBothIndex returns the combined index.
func NewBothIndex() *BothIndex {
	return &BothIndex{Version: NewVersionIndex(), Delta: NewDeltaIndex()}
}

// Name implements Index.
func (ix *BothIndex) Name() string { return "both" }

// AddVersion implements Index.
func (ix *BothIndex) AddVersion(doc model.DocID, newRoot *xmltree.Node, script *diff.Script, t model.Time) error {
	if err := ix.Version.AddVersion(doc, newRoot, script, t); err != nil {
		return err
	}
	return ix.Delta.AddVersion(doc, newRoot, script, t)
}

// DeleteDoc implements Index.
func (ix *BothIndex) DeleteDoc(doc model.DocID, t model.Time) error {
	if err := ix.Version.DeleteDoc(doc, t); err != nil {
		return err
	}
	return ix.Delta.DeleteDoc(doc, t)
}

// Lookup implements Index.
func (ix *BothIndex) Lookup(word string) []Posting { return ix.Version.Lookup(word) }

// LookupT implements Index.
func (ix *BothIndex) LookupT(word string, t model.Time) []Posting { return ix.Version.LookupT(word, t) }

// LookupH implements Index.
func (ix *BothIndex) LookupH(word string) []Posting { return ix.Version.LookupH(word) }

// Events exposes the delta side's change events.
func (ix *BothIndex) Events(word string) []Event { return ix.Delta.Events(word) }

// Stats implements Index.
func (ix *BothIndex) Stats() Stats {
	v, d := ix.Version.Stats(), ix.Delta.Stats()
	return Stats{
		Words:             max(v.Words, d.Words),
		Postings:          v.Postings + d.Postings,
		Open:              v.Open,
		OpKeywordPostings: d.OpKeywordPostings,
		Bytes:             v.Bytes + d.Bytes,
	}
}

// occKey identifies one word occurrence key of a document: the owning
// element, the source and the word.
type occKey struct {
	x    model.XID
	src  Source
	word string
}
