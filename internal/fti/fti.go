// Package fti implements the temporal full-text index of Section 7.2 of the
// paper: an inverted-list index over all words in the documents, including
// element names, whose postings carry the information needed to determine
// hierarchical relationships (the ancestor XID chain) and temporal validity.
//
// The paper discusses three alternatives for indexing versioned content:
//
//  1. index the contents of the versions   → VersionIndex
//  2. index the contents of the delta documents → DeltaIndex
//  3. index both → BothIndex
//
// and chooses the first; all three are implemented here behind the Index
// interface so that experiment C5 can compare them quantitatively.
package fti

import (
	"fmt"
	"strings"
	"unicode"

	"txmldb/internal/diff"
	"txmldb/internal/model"
	"txmldb/internal/xmltree"
)

// Source distinguishes where in the document a word occurred. PatternScan
// needs it: a pattern step "price" must match elements *named* price, not
// elements containing the text "price".
type Source uint8

const (
	// SrcName is an element name occurrence.
	SrcName Source = iota
	// SrcText is a word inside a text node; the posting's element is the
	// text node's parent.
	SrcText
	// SrcAttr is a word inside an attribute name or value.
	SrcAttr
)

func (s Source) String() string {
	switch s {
	case SrcName:
		return "name"
	case SrcText:
		return "text"
	case SrcAttr:
		return "attr"
	default:
		return fmt.Sprintf("Source(%d)", uint8(s))
	}
}

// Posting records that a document element contained a word during a
// transaction-time interval. Path is the element's XID chain from the
// element itself up to the document root; structural joins use it to decide
// isParentOf / isAscendantOf relationships without touching the document.
type Posting struct {
	Doc  model.DocID
	X    model.XID
	Path []model.XID
	Src  Source
	Span model.Interval
}

// TEID returns the temporal identifier of the posting's element at time t.
func (p Posting) TEID(t model.Time) model.TEID {
	return model.TEID{E: model.EID{Doc: p.Doc, X: p.X}, T: t}
}

// ParentXID returns the XID of the element's parent, or 0 for a root.
func (p Posting) ParentXID() model.XID {
	if len(p.Path) < 2 {
		return 0
	}
	return p.Path[1]
}

// HasAncestor reports whether the element with XID a is a proper ancestor
// of the posting's element.
func (p Posting) HasAncestor(a model.XID) bool {
	for _, x := range p.Path[1:] {
		if x == a {
			return true
		}
	}
	return false
}

// Stats describes the size and composition of an index.
type Stats struct {
	// Words is the number of distinct indexed words.
	Words int
	// Postings is the total number of postings or events, including
	// operation-keyword postings for delta indexing.
	Postings int
	// Open is the number of currently valid postings (version indexing).
	Open int
	// OpKeywordPostings counts postings whose word is a delta operation
	// keyword ("insert", "delete", ...), the blow-up the paper warns about.
	OpKeywordPostings int
	// Bytes is a rough estimate of the index's memory footprint.
	Bytes int64
}

// Index is the temporal full-text index interface: the three FTI operations
// of Section 7.2 plus incremental maintenance driven by the version store.
type Index interface {
	// Name identifies the indexing alternative for reports.
	Name() string
	// AddVersion maintains the index after a document version was stored:
	// script is nil for the initial version, otherwise the completed delta
	// that produced newRoot. newRoot is the stored (annotated) version.
	AddVersion(doc model.DocID, newRoot *xmltree.Node, script *diff.Script, t model.Time) error
	// DeleteDoc closes the document's postings at time t.
	DeleteDoc(doc model.DocID, t model.Time) error
	// Lookup returns postings of word in currently valid versions
	// (FTI_lookup in the paper).
	Lookup(word string) []Posting
	// LookupT returns postings of word valid at time t (FTI_lookup_T).
	LookupT(word string, t model.Time) []Posting
	// LookupH returns all postings of word over the whole history
	// (FTI_lookup_H).
	LookupH(word string) []Posting
	// Stats reports index size.
	Stats() Stats
}

// Tokenize splits text into index words: maximal runs of letters and
// digits. Words are indexed exactly as written (no case folding), matching
// the paper's containment-plus-equality-test query strategy.
func Tokenize(s string) []string {
	return strings.FieldsFunc(s, func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// occurrence is one word occurrence attributed to an owning element.
type occurrence struct {
	word string
	x    model.XID // owning element
	src  Source
}

// nodeOccurrences returns the word occurrences contributed by a single
// node (not its subtree): the element name and attribute words for
// elements, the text tokens (owned by the parent element) for text nodes.
func nodeOccurrences(n *xmltree.Node) []occurrence {
	var out []occurrence
	switch {
	case n.IsElement():
		out = append(out, occurrence{word: n.Name, x: n.XID, src: SrcName})
		for _, a := range n.Attrs {
			for _, w := range Tokenize(a.Name) {
				out = append(out, occurrence{word: w, x: n.XID, src: SrcAttr})
			}
			for _, w := range Tokenize(a.Value) {
				out = append(out, occurrence{word: w, x: n.XID, src: SrcAttr})
			}
		}
	case n.IsText() && n.Parent != nil:
		for _, w := range Tokenize(n.Value) {
			out = append(out, occurrence{word: w, x: n.Parent.XID, src: SrcText})
		}
	}
	return out
}

// subtreeOccurrences returns the occurrences of the whole subtree. For a
// detached text payload (a deleted lone text node), owner is used as the
// parent element.
func subtreeOccurrences(n *xmltree.Node, owner model.XID) []occurrence {
	var out []occurrence
	if n.IsText() && n.Parent == nil {
		for _, w := range Tokenize(n.Value) {
			out = append(out, occurrence{word: w, x: owner, src: SrcText})
		}
		return out
	}
	n.Walk(func(d *xmltree.Node) bool {
		out = append(out, nodeOccurrences(d)...)
		return true
	})
	return out
}

// pathOf returns the XID chain of the element, self first, root last.
func pathOf(n *xmltree.Node) []model.XID {
	var out []model.XID
	for p := n; p != nil; p = p.Parent {
		out = append(out, p.XID)
	}
	return out
}

func postingBytes(word string, pathLen int) int64 {
	// word share + struct + path slice, a deliberate back-of-envelope
	// estimate used only for the size comparison in experiment C5.
	return int64(len(word)) + 40 + int64(8*pathLen)
}
