package fti

// The version FTI's upkeep as it was before it followed the completed
// delta: every AddVersion re-tokenizes the whole new version and diffs its
// occurrence multiset against the open postings. Kept only as the
// differential oracle of TestVersionIndexMatchesOracle, together with its
// checkpoint image writer, which the current RestoreState must accept.

import (
	"sync"

	"txmldb/internal/diff"
	"txmldb/internal/model"
	"txmldb/internal/xmltree"
)

// oracleVersionIndex is the parent implementation of VersionIndex.
type oracleVersionIndex struct {
	mu    sync.RWMutex
	words map[string][]Posting
	// open tracks the currently valid posting per document and occurrence
	// key, with its occurrence count and path signature.
	open map[model.DocID]map[occKey]*oracleOpenEntry
	// liveByWord holds, per word, the indexes of postings that were open
	// when last appended; closed entries are compacted away lazily on
	// lookup. It makes current-state lookups cost O(live) instead of
	// O(history) — one of the "new types of indexes" the paper's
	// Section 8 calls for.
	liveByWord map[string][]int
}

type oracleOpenEntry struct {
	idx     int // position in words[key.word]
	count   int
	pathSig uint64
}

// newOracleVersionIndex returns an empty oracle index.
func newOracleVersionIndex() *oracleVersionIndex {
	return &oracleVersionIndex{
		words:      make(map[string][]Posting),
		open:       make(map[model.DocID]map[occKey]*oracleOpenEntry),
		liveByWord: make(map[string][]int),
	}
}

// oracleOccState is the occurrence multiset of one document version.
type oracleOccState struct {
	counts map[occKey]int
	paths  map[model.XID][]model.XID
}

func oracleOccurrencesOf(root *xmltree.Node) oracleOccState {
	st := oracleOccState{
		counts: make(map[occKey]int),
		paths:  make(map[model.XID][]model.XID),
	}
	root.Walk(func(n *xmltree.Node) bool {
		if n.IsElement() {
			st.paths[n.XID] = pathOf(n)
		}
		for _, o := range nodeOccurrences(n) {
			st.counts[occKey{x: o.x, src: o.src, word: o.word}]++
		}
		return true
	})
	return st
}

func oraclePathSig(path []model.XID) uint64 {
	var h uint64 = 1469598103934665603
	for _, x := range path {
		h ^= uint64(x)
		h *= 1099511628211
	}
	return h
}

// AddVersion diffs the new version's occurrence
// multiset against the open postings of the document: vanished occurrences
// close their postings, new ones open postings, and elements whose ancestor
// chain changed (moves) close and reopen so the stored path stays valid for
// the posting's span. The completed delta script is not needed here; the
// DeltaIndex alternative consumes it.
func (ix *oracleVersionIndex) AddVersion(doc model.DocID, newRoot *xmltree.Node, _ *diff.Script, t model.Time) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	st := oracleOccurrencesOf(newRoot)
	docOpen := ix.open[doc]
	if docOpen == nil {
		docOpen = make(map[occKey]*oracleOpenEntry)
		ix.open[doc] = docOpen
	}
	// Close postings whose occurrence vanished or whose element moved.
	for key, ent := range docOpen {
		newCount := st.counts[key]
		newSig := oraclePathSig(st.paths[key.x])
		if newCount > 0 && ent.pathSig == newSig {
			ent.count = newCount
			continue
		}
		ix.closeLocked(key.word, ent.idx, t)
		delete(docOpen, key)
	}
	// Open postings for new occurrences (including reopened moves).
	for key, count := range st.counts {
		if _, exists := docOpen[key]; exists {
			continue
		}
		path := st.paths[key.x]
		ix.words[key.word] = append(ix.words[key.word], Posting{
			Doc:  doc,
			X:    key.x,
			Path: path,
			Src:  key.src,
			Span: model.Interval{Start: t, End: model.Forever},
		})
		idx := len(ix.words[key.word]) - 1
		docOpen[key] = &oracleOpenEntry{
			idx:     idx,
			count:   count,
			pathSig: oraclePathSig(path),
		}
		ix.liveByWord[key.word] = append(ix.liveByWord[key.word], idx)
	}
	return nil
}

// closeLocked ends the posting's validity at t. A posting can end in the
// same instant it started (element reindexed within one version
// transition); such empty-span postings are filtered out by the lookups.
func (ix *oracleVersionIndex) closeLocked(word string, idx int, t model.Time) {
	p := &ix.words[word][idx]
	p.Span.End = t
	// The liveByWord entry is compacted away by the next Lookup.
}

// DeleteDoc closes the document's open postings.
func (ix *oracleVersionIndex) DeleteDoc(doc model.DocID, t model.Time) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for key, ent := range ix.open[doc] {
		ix.closeLocked(key.word, ent.idx, t)
	}
	delete(ix.open, doc)
	return nil
}

// LookupT returns the postings valid at time t.
func (ix *oracleVersionIndex) LookupT(word string, t model.Time) []Posting {
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

// LookupH returns all postings over the whole history. Postings
// with an empty span (opened and closed by the same version transition)
// are skipped.
func (ix *oracleVersionIndex) LookupH(word string) []Posting {
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

// SnapshotState writes the checkpoint image of the oracle's state.
func (ix *oracleVersionIndex) SnapshotState() ([]byte, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	img := versionIndexImage{
		Words: ix.words,
		Open:  make(map[model.DocID][]versionOpenImage, len(ix.open)),
		Live:  ix.liveByWord,
	}
	for doc, docOpen := range ix.open {
		entries := make([]versionOpenImage, 0, len(docOpen))
		for key, ent := range docOpen {
			entries = append(entries, versionOpenImage{
				X: key.x, Src: key.src, Word: key.word,
				Idx: ent.idx, Count: ent.count, PathSig: ent.pathSig,
			})
		}
		img.Open[doc] = entries
	}
	return gobEncode(img)
}
