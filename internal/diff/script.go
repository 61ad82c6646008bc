// Package diff implements the XML change-detection engine of the database:
// an XID-preserving tree matcher in the spirit of XyDiff (Cobéna, Abiteboul,
// Marian — reference [7] of the paper) and *completed* edit scripts that can
// be applied both forward and backward (Section 7.1: "completed deltas can
// be used both as forward and backward deltas").
//
// Edit scripts are themselves representable as XML documents, which is what
// makes the paper's Diff operator closed under the data model (Section 6.1)
// and what lets the version store keep every delta "as a separate XML
// document" (Section 7.1).
package diff

import (
	"fmt"
	"sort"
	"strconv"

	"txmldb/internal/model"
	"txmldb/internal/xmltree"
)

// OpKind enumerates the edit operations of a script.
type OpKind uint8

const (
	// OpInsert inserts Node (a subtree with assigned XIDs and stamps) as
	// child Pos of element Parent.
	OpInsert OpKind = iota
	// OpDelete removes the subtree rooted at XID. The completed form keeps
	// the removed subtree in Node and its old location in OldParent/OldPos.
	OpDelete
	// OpUpdateText replaces the value of text node XID (OldValue→NewValue).
	OpUpdateText
	// OpUpdateAttrs replaces the attribute list of element XID.
	OpUpdateAttrs
	// OpRename changes the name of element XID (OldValue→NewValue). The
	// matcher only emits renames for document roots, which cannot be
	// expressed as delete+insert; everywhere else a renamed element is
	// treated as a deletion plus an insertion, like in XyDiff.
	OpRename
	// OpMove relocates the subtree rooted at XID from OldParent/OldPos to
	// Parent/Pos.
	OpMove
)

func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpUpdateText:
		return "update"
	case OpUpdateAttrs:
		return "updateattrs"
	case OpRename:
		return "rename"
	case OpMove:
		return "move"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one completed edit operation. Which fields are meaningful depends
// on Kind; see the OpKind constants.
type Op struct {
	Kind      OpKind
	XID       model.XID     // target node (delete/update/rename/move)
	Parent    model.XID     // new parent (insert/move)
	Pos       int           // new position (insert/move)
	OldParent model.XID     // previous parent (delete/move)
	OldPos    int           // previous position (delete/move)
	Node      *xmltree.Node // payload subtree (insert/delete)
	OldValue  string        // previous text value / element name
	NewValue  string        // new text value / element name
	OldAttrs  []xmltree.Attr
	NewAttrs  []xmltree.Attr
}

// Restamp records the timestamp change of one element caused by a version
// transition: forward application sets the node's stamp to New, backward
// application restores Old. The set of restamped nodes is exactly the
// targets of the ops plus all their ancestors, per the paper's Section 4
// rule that "every update of an element also implies update of the element
// it is contained in".
type Restamp struct {
	XID model.XID
	Old model.Time
	New model.Time
}

// Script is a completed delta between two consecutive document versions.
type Script struct {
	Ops       []Op
	Restamps  []Restamp
	FromVer   model.VersionNo
	ToVer     model.VersionNo
	FromStamp model.Time
	ToStamp   model.Time
}

// Empty reports whether the script performs no edits.
func (s *Script) Empty() bool { return len(s.Ops) == 0 }

// Invert returns the script transforming the "to" version back into the
// "from" version: ops are reversed and individually inverted, restamps
// swapped.
func (s *Script) Invert() *Script {
	inv := &Script{
		Ops:       make([]Op, 0, len(s.Ops)),
		Restamps:  make([]Restamp, len(s.Restamps)),
		FromVer:   s.ToVer,
		ToVer:     s.FromVer,
		FromStamp: s.ToStamp,
		ToStamp:   s.FromStamp,
	}
	for i := len(s.Ops) - 1; i >= 0; i-- {
		inv.Ops = append(inv.Ops, invertOp(s.Ops[i]))
	}
	for i, r := range s.Restamps {
		inv.Restamps[i] = Restamp{XID: r.XID, Old: r.New, New: r.Old}
	}
	return inv
}

func invertOp(op Op) Op {
	switch op.Kind {
	case OpInsert:
		return Op{Kind: OpDelete, XID: op.Node.XID, OldParent: op.Parent, OldPos: op.Pos, Node: op.Node}
	case OpDelete:
		return Op{Kind: OpInsert, Parent: op.OldParent, Pos: op.OldPos, Node: op.Node}
	case OpUpdateText:
		return Op{Kind: OpUpdateText, XID: op.XID, OldValue: op.NewValue, NewValue: op.OldValue}
	case OpUpdateAttrs:
		return Op{Kind: OpUpdateAttrs, XID: op.XID, OldAttrs: op.NewAttrs, NewAttrs: op.OldAttrs}
	case OpRename:
		return Op{Kind: OpRename, XID: op.XID, OldValue: op.NewValue, NewValue: op.OldValue}
	case OpMove:
		return Op{Kind: OpMove, XID: op.XID,
			Parent: op.OldParent, Pos: op.OldPos,
			OldParent: op.Parent, OldPos: op.Pos}
	default:
		panic(fmt.Sprintf("diff: invertOp: unknown kind %d", op.Kind))
	}
}

// Apply transforms the tree rooted at root in place by executing the script
// forward. Applying an inverted script performs backward reconstruction.
func Apply(root *xmltree.Node, s *Script) error { return NewApplier(root).Apply(s) }

// Applier applies a chain of scripts to one tree. It indexes the tree by
// XID once, on the first Apply, and keeps the index current through the
// inserts and deletes of every script, instead of re-indexing the whole
// tree per delta. The tree must change only through the Applier while it
// is in use.
type Applier struct {
	root *xmltree.Node
	idx  map[model.XID]*xmltree.Node
}

// NewApplier returns an Applier for the tree rooted at root.
func NewApplier(root *xmltree.Node) *Applier { return &Applier{root: root} }

// Apply executes the script forward on the Applier's tree.
func (a *Applier) Apply(s *Script) error {
	if a.idx == nil {
		a.idx = buildXIDIndex(a.root)
	}
	for i, op := range s.Ops {
		if err := applyOp(op, a.idx); err != nil {
			return fmt.Errorf("diff: apply op %d (%s): %w", i, op.Kind, err)
		}
	}
	for _, r := range s.Restamps {
		if n := a.idx[r.XID]; n != nil {
			n.Stamp = r.New
		}
	}
	return nil
}

func buildXIDIndex(root *xmltree.Node) map[model.XID]*xmltree.Node {
	idx := make(map[model.XID]*xmltree.Node)
	root.Walk(func(n *xmltree.Node) bool {
		if n.XID != 0 {
			idx[n.XID] = n
		}
		return true
	})
	return idx
}

func applyOp(op Op, idx map[model.XID]*xmltree.Node) error {
	switch op.Kind {
	case OpInsert:
		parent := idx[op.Parent]
		if parent == nil {
			return fmt.Errorf("insert parent %d not found", op.Parent)
		}
		if op.Pos < 0 || op.Pos > len(parent.Children) {
			return fmt.Errorf("insert position %d out of range (parent has %d children)", op.Pos, len(parent.Children))
		}
		sub := op.Node.Clone()
		parent.InsertChild(op.Pos, sub)
		sub.Walk(func(n *xmltree.Node) bool {
			if n.XID != 0 {
				idx[n.XID] = n
			}
			return true
		})
	case OpDelete:
		n := idx[op.XID]
		if n == nil {
			return fmt.Errorf("delete target %d not found", op.XID)
		}
		n.Detach()
		n.Walk(func(d *xmltree.Node) bool {
			delete(idx, d.XID)
			return true
		})
	case OpUpdateText:
		n := idx[op.XID]
		if n == nil {
			return fmt.Errorf("update target %d not found", op.XID)
		}
		if !n.IsText() {
			return fmt.Errorf("update target %d is not a text node", op.XID)
		}
		n.Value = op.NewValue
	case OpUpdateAttrs:
		n := idx[op.XID]
		if n == nil {
			return fmt.Errorf("updateattrs target %d not found", op.XID)
		}
		n.Attrs = append([]xmltree.Attr(nil), op.NewAttrs...)
	case OpRename:
		n := idx[op.XID]
		if n == nil {
			return fmt.Errorf("rename target %d not found", op.XID)
		}
		n.Name = op.NewValue
	case OpMove:
		n := idx[op.XID]
		if n == nil {
			return fmt.Errorf("move target %d not found", op.XID)
		}
		parent := idx[op.Parent]
		if parent == nil {
			return fmt.Errorf("move destination parent %d not found", op.Parent)
		}
		for p := parent; p != nil; p = p.Parent {
			if p == n {
				return fmt.Errorf("move of %d into its own subtree", op.XID)
			}
		}
		n.Detach()
		if op.Pos < 0 || op.Pos > len(parent.Children) {
			return fmt.Errorf("move position %d out of range", op.Pos)
		}
		parent.InsertChild(op.Pos, n)
	default:
		return fmt.Errorf("unknown op kind %d", op.Kind)
	}
	return nil
}

// ToXML renders the script as an XML tree rooted at <txdelta>, the
// representation stored by the version store and returned by the Diff
// query operator.
func (s *Script) ToXML() *xmltree.Node {
	root := xmltree.NewElement("txdelta")
	root.SetAttr("fromver", strconv.Itoa(int(s.FromVer)))
	root.SetAttr("tover", strconv.Itoa(int(s.ToVer)))
	root.SetAttr("fromstamp", strconv.FormatInt(int64(s.FromStamp), 10))
	root.SetAttr("tostamp", strconv.FormatInt(int64(s.ToStamp), 10))
	for _, op := range s.Ops {
		e := xmltree.NewElement(op.Kind.String())
		switch op.Kind {
		case OpInsert:
			e.SetAttr("parent", xidStr(op.Parent))
			e.SetAttr("pos", strconv.Itoa(op.Pos))
			e.AppendChild(op.Node.Clone())
		case OpDelete:
			e.SetAttr("xid", xidStr(op.XID))
			e.SetAttr("oldparent", xidStr(op.OldParent))
			e.SetAttr("oldpos", strconv.Itoa(op.OldPos))
			if op.Node != nil {
				e.AppendChild(op.Node.Clone())
			}
		case OpUpdateText, OpRename:
			e.SetAttr("xid", xidStr(op.XID))
			e.AppendChild(xmltree.ElemText("old", op.OldValue))
			e.AppendChild(xmltree.ElemText("new", op.NewValue))
		case OpUpdateAttrs:
			e.SetAttr("xid", xidStr(op.XID))
			e.AppendChild(attrsToXML("old", op.OldAttrs))
			e.AppendChild(attrsToXML("new", op.NewAttrs))
		case OpMove:
			e.SetAttr("xid", xidStr(op.XID))
			e.SetAttr("parent", xidStr(op.Parent))
			e.SetAttr("pos", strconv.Itoa(op.Pos))
			e.SetAttr("oldparent", xidStr(op.OldParent))
			e.SetAttr("oldpos", strconv.Itoa(op.OldPos))
		}
		root.AppendChild(e)
	}
	for _, r := range s.Restamps {
		e := xmltree.NewElement("restamp")
		e.SetAttr("xid", xidStr(r.XID))
		e.SetAttr("old", strconv.FormatInt(int64(r.Old), 10))
		e.SetAttr("new", strconv.FormatInt(int64(r.New), 10))
		root.AppendChild(e)
	}
	return root
}

func xidStr(x model.XID) string { return strconv.FormatUint(uint64(x), 10) }

func attrsToXML(name string, attrs []xmltree.Attr) *xmltree.Node {
	e := xmltree.NewElement(name)
	for _, a := range attrs {
		ae := xmltree.NewElement("attr")
		ae.SetAttr("name", a.Name)
		ae.SetAttr("value", a.Value)
		e.AppendChild(ae)
	}
	return e
}

// FromXML parses a <txdelta> tree produced by ToXML. It consumes root: the
// insert and delete payloads are detached from it and become the ops'
// Node, so the caller must not use root afterwards.
func FromXML(root *xmltree.Node) (*Script, error) {
	if root.Name != "txdelta" {
		return nil, fmt.Errorf("diff: FromXML: root is <%s>, want <txdelta>", root.Name)
	}
	s := &Script{}
	var err error
	if s.FromVer, err = verAttr(root, "fromver"); err != nil {
		return nil, err
	}
	if s.ToVer, err = verAttr(root, "tover"); err != nil {
		return nil, err
	}
	if s.FromStamp, err = timeAttr(root, "fromstamp"); err != nil {
		return nil, err
	}
	if s.ToStamp, err = timeAttr(root, "tostamp"); err != nil {
		return nil, err
	}
	for _, e := range root.Children {
		if !e.IsElement() {
			continue
		}
		switch e.Name {
		case "insert":
			op := Op{Kind: OpInsert}
			if op.Parent, err = xidAttr(e, "parent"); err != nil {
				return nil, err
			}
			if op.Pos, err = intAttr(e, "pos"); err != nil {
				return nil, err
			}
			if len(e.Children) != 1 {
				return nil, fmt.Errorf("diff: FromXML: insert payload must be one node, has %d", len(e.Children))
			}
			op.Node = e.Children[0].Detach()
			s.Ops = append(s.Ops, op)
		case "delete":
			op := Op{Kind: OpDelete}
			if op.XID, err = xidAttr(e, "xid"); err != nil {
				return nil, err
			}
			if op.OldParent, err = xidAttr(e, "oldparent"); err != nil {
				return nil, err
			}
			if op.OldPos, err = intAttr(e, "oldpos"); err != nil {
				return nil, err
			}
			if len(e.Children) == 1 {
				op.Node = e.Children[0].Detach()
			}
			s.Ops = append(s.Ops, op)
		case "update", "rename":
			op := Op{Kind: OpUpdateText}
			if e.Name == "rename" {
				op.Kind = OpRename
			}
			if op.XID, err = xidAttr(e, "xid"); err != nil {
				return nil, err
			}
			for _, c := range e.ChildElements("") {
				switch c.Name {
				case "old":
					op.OldValue = c.Text()
				case "new":
					op.NewValue = c.Text()
				}
			}
			s.Ops = append(s.Ops, op)
		case "updateattrs":
			op := Op{Kind: OpUpdateAttrs}
			if op.XID, err = xidAttr(e, "xid"); err != nil {
				return nil, err
			}
			for _, c := range e.ChildElements("") {
				attrs := xmlToAttrs(c)
				switch c.Name {
				case "old":
					op.OldAttrs = attrs
				case "new":
					op.NewAttrs = attrs
				}
			}
			s.Ops = append(s.Ops, op)
		case "move":
			op := Op{Kind: OpMove}
			if op.XID, err = xidAttr(e, "xid"); err != nil {
				return nil, err
			}
			if op.Parent, err = xidAttr(e, "parent"); err != nil {
				return nil, err
			}
			if op.Pos, err = intAttr(e, "pos"); err != nil {
				return nil, err
			}
			if op.OldParent, err = xidAttr(e, "oldparent"); err != nil {
				return nil, err
			}
			if op.OldPos, err = intAttr(e, "oldpos"); err != nil {
				return nil, err
			}
			s.Ops = append(s.Ops, op)
		case "restamp":
			r := Restamp{}
			if r.XID, err = xidAttr(e, "xid"); err != nil {
				return nil, err
			}
			if r.Old, err = timeAttr(e, "old"); err != nil {
				return nil, err
			}
			if r.New, err = timeAttr(e, "new"); err != nil {
				return nil, err
			}
			s.Restamps = append(s.Restamps, r)
		default:
			return nil, fmt.Errorf("diff: FromXML: unknown op element <%s>", e.Name)
		}
	}
	return s, nil
}

func xmlToAttrs(e *xmltree.Node) []xmltree.Attr {
	var out []xmltree.Attr
	for _, c := range e.ChildElements("attr") {
		name, _ := c.Attr("name")
		value, _ := c.Attr("value")
		out = append(out, xmltree.Attr{Name: name, Value: value})
	}
	return out
}

func xidAttr(e *xmltree.Node, name string) (model.XID, error) {
	v, ok := e.Attr(name)
	if !ok {
		return 0, fmt.Errorf("diff: FromXML: <%s> missing attribute %q", e.Name, name)
	}
	u, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("diff: FromXML: bad %s=%q: %w", name, v, err)
	}
	return model.XID(u), nil
}

func intAttr(e *xmltree.Node, name string) (int, error) {
	v, ok := e.Attr(name)
	if !ok {
		return 0, fmt.Errorf("diff: FromXML: <%s> missing attribute %q", e.Name, name)
	}
	return strconv.Atoi(v)
}

func timeAttr(e *xmltree.Node, name string) (model.Time, error) {
	v, ok := e.Attr(name)
	if !ok {
		return 0, fmt.Errorf("diff: FromXML: <%s> missing attribute %q", e.Name, name)
	}
	i, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, err
	}
	return model.Time(i), nil
}

func verAttr(e *xmltree.Node, name string) (model.VersionNo, error) {
	i, err := intAttr(e, name)
	return model.VersionNo(i), err
}

// Stats summarizes a script for change-oriented queries and monitoring.
type Stats struct {
	Inserts, Deletes, Updates, Moves, Renames int
	// NodesInserted and NodesDeleted count whole subtree sizes.
	NodesInserted, NodesDeleted int
}

// Stats computes per-kind operation counts.
func (s *Script) Stats() Stats {
	var st Stats
	for _, op := range s.Ops {
		switch op.Kind {
		case OpInsert:
			st.Inserts++
			st.NodesInserted += op.Node.Size()
		case OpDelete:
			st.Deletes++
			if op.Node != nil {
				st.NodesDeleted += op.Node.Size()
			}
		case OpUpdateText, OpUpdateAttrs:
			st.Updates++
		case OpMove:
			st.Moves++
		case OpRename:
			st.Renames++
		}
	}
	return st
}

// sortRestamps orders restamps by XID for deterministic serialization.
func sortRestamps(rs []Restamp) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].XID < rs[j].XID })
}
