// Package xmltree provides the tree representation of XML documents used
// throughout the database, together with parsing, serialization, traversal
// and structural hashing.
//
// A document in the database is viewed as a forest of trees (Section 4 of
// the paper). Each node carries the persistent element identifier (XID) and
// the timestamp of the last update of the element or one of its children.
// The XID and timestamp are managed by the diff engine and the version
// store; a freshly parsed tree has XID 0 ("unassigned") everywhere.
package xmltree

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"

	"txmldb/internal/model"
)

// Kind distinguishes element nodes from text nodes.
type Kind uint8

const (
	// Element is an XML element node; Name holds the tag.
	Element Kind = iota
	// Text is a character-data node; Value holds the text.
	Text
)

func (k Kind) String() string {
	switch k {
	case Element:
		return "element"
	case Text:
		return "text"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Attr is a single attribute of an element node.
type Attr struct {
	Name  string
	Value string
}

// Node is one node of an XML tree. Element nodes have a Name, Attrs and
// Children; text nodes have a Value. The Parent pointer is maintained by all
// mutating operations in this package.
type Node struct {
	Kind     Kind
	Name     string // element name; empty for text nodes
	Value    string // character data; empty for element nodes
	Attrs    []Attr
	Children []*Node
	Parent   *Node

	// XID is the persistent element identifier (Section 3.2). It is zero
	// until the version store assigns one.
	XID model.XID

	// Stamp is the time of the last update of this element or one of its
	// children (Section 4). The version store maintains it.
	Stamp model.Time
}

// NewElement returns a parentless element node with the given tag name.
func NewElement(name string) *Node { return &Node{Kind: Element, Name: name} }

// NewText returns a parentless text node with the given character data.
func NewText(value string) *Node { return &Node{Kind: Text, Value: value} }

// Elem builds an element with the given children appended, for concise test
// and example construction.
func Elem(name string, children ...*Node) *Node {
	n := NewElement(name)
	for _, c := range children {
		n.AppendChild(c)
	}
	return n
}

// ElemText builds an element containing a single text child, such as
// <name>Napoli</name>.
func ElemText(name, text string) *Node { return Elem(name, NewText(text)) }

// IsElement reports whether the node is an element node.
func (n *Node) IsElement() bool { return n.Kind == Element }

// IsText reports whether the node is a text node.
func (n *Node) IsText() bool { return n.Kind == Text }

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// SetAttr sets or replaces the named attribute.
func (n *Node) SetAttr(name, value string) {
	for i := range n.Attrs {
		if n.Attrs[i].Name == name {
			n.Attrs[i].Value = value
			return
		}
	}
	n.Attrs = append(n.Attrs, Attr{Name: name, Value: value})
}

// RemoveAttr deletes the named attribute if present and reports whether it
// was there.
func (n *Node) RemoveAttr(name string) bool {
	for i := range n.Attrs {
		if n.Attrs[i].Name == name {
			n.Attrs = append(n.Attrs[:i], n.Attrs[i+1:]...)
			return true
		}
	}
	return false
}

// AppendChild adds c as the last child of n and sets its parent.
func (n *Node) AppendChild(c *Node) {
	c.Parent = n
	n.Children = append(n.Children, c)
}

// InsertChild inserts c at position pos among n's children (0 = first).
// A pos beyond the end appends.
func (n *Node) InsertChild(pos int, c *Node) {
	if pos < 0 {
		pos = 0
	}
	if pos > len(n.Children) {
		pos = len(n.Children)
	}
	c.Parent = n
	n.Children = append(n.Children, nil)
	copy(n.Children[pos+1:], n.Children[pos:])
	n.Children[pos] = c
}

// RemoveChildAt removes and returns the child at position pos.
func (n *Node) RemoveChildAt(pos int) *Node {
	c := n.Children[pos]
	n.Children = append(n.Children[:pos], n.Children[pos+1:]...)
	c.Parent = nil
	return c
}

// ChildIndex returns the position of c among n's children, or -1.
func (n *Node) ChildIndex(c *Node) int {
	for i, k := range n.Children {
		if k == c {
			return i
		}
	}
	return -1
}

// Detach removes n from its parent, if any, and returns n.
func (n *Node) Detach() *Node {
	if n.Parent != nil {
		if i := n.Parent.ChildIndex(n); i >= 0 {
			n.Parent.RemoveChildAt(i)
		}
	}
	return n
}

// Text returns the concatenation of all text-node descendants of n, in
// document order. For a text node it returns its value.
func (n *Node) Text() string {
	if n.IsText() {
		return n.Value
	}
	var b strings.Builder
	n.Walk(func(d *Node) bool {
		if d.IsText() {
			b.WriteString(d.Value)
		}
		return true
	})
	return b.String()
}

// Walk visits n and every descendant in document order. The visitor returns
// false to prune the subtree below the visited node.
func (n *Node) Walk(visit func(*Node) bool) {
	if !visit(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(visit)
	}
}

// FindXID returns the descendant-or-self node carrying the given XID, or nil.
func (n *Node) FindXID(x model.XID) *Node {
	var found *Node
	n.Walk(func(d *Node) bool {
		if found != nil {
			return false
		}
		if d.XID == x {
			found = d
			return false
		}
		return true
	})
	return found
}

// Ancestors returns the chain of ancestors of n from its parent up to the
// root, in that order.
func (n *Node) Ancestors() []*Node {
	var out []*Node
	for p := n.Parent; p != nil; p = p.Parent {
		out = append(out, p)
	}
	return out
}

// Root returns the topmost ancestor of n (n itself if parentless).
func (n *Node) Root() *Node {
	r := n
	for r.Parent != nil {
		r = r.Parent
	}
	return r
}

// Depth returns the number of ancestors of n (0 for a root).
func (n *Node) Depth() int {
	d := 0
	for p := n.Parent; p != nil; p = p.Parent {
		d++
	}
	return d
}

// Size returns the number of nodes in the subtree rooted at n, including n.
func (n *Node) Size() int {
	total := 0
	n.Walk(func(*Node) bool { total++; return true })
	return total
}

// Elements returns all descendant-or-self element nodes with the given name;
// an empty name matches every element.
func (n *Node) Elements(name string) []*Node {
	var out []*Node
	n.Walk(func(d *Node) bool {
		if d.IsElement() && (name == "" || d.Name == name) {
			out = append(out, d)
		}
		return true
	})
	return out
}

// ChildElements returns the direct element children of n with the given
// name; an empty name matches every element child.
func (n *Node) ChildElements(name string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.IsElement() && (name == "" || c.Name == name) {
			out = append(out, c)
		}
	}
	return out
}

// SelectPath resolves a simple slash-separated child path such as
// "restaurant/name" relative to n and returns all matching elements.
// A step of "*" matches any element.
func (n *Node) SelectPath(path string) []*Node {
	steps := strings.Split(strings.Trim(path, "/"), "/")
	current := []*Node{n}
	for _, step := range steps {
		if step == "" {
			continue
		}
		var next []*Node
		for _, c := range current {
			if step == "*" {
				next = append(next, c.ChildElements("")...)
			} else {
				next = append(next, c.ChildElements(step)...)
			}
		}
		current = next
	}
	return current
}

// Clone returns a deep copy of the subtree rooted at n. The copy keeps
// XIDs and timestamps and has a nil parent. It shares its strings with n.
func (n *Node) Clone() *Node { return n.clone(nil) }

// CloneOwned is Clone with a fresh copy of every name, value and attribute
// string. A tree from Unmarshal points into the whole serialized document
// (and a replayed tree into every delta of its chain); a tree that outlives
// the request that decoded it should be a CloneOwned copy, so that it
// retains only what DeepSize counts. Each distinct element or attribute
// name is copied once and shared within the copy.
func (n *Node) CloneOwned() *Node { return n.clone(make(map[string]string)) }

// clone copies the subtree. A nil names map shares every string with n;
// otherwise values are copied and names are copied once each through
// names, which maps a source name to its copy.
func (n *Node) clone(names map[string]string) *Node {
	cp := &Node{
		Kind:  n.Kind,
		Name:  n.Name,
		Value: n.Value,
		XID:   n.XID,
		Stamp: n.Stamp,
	}
	if names != nil {
		cp.Name, cp.Value = ownName(names, n.Name), strings.Clone(n.Value)
	}
	if len(n.Attrs) > 0 {
		cp.Attrs = append([]Attr(nil), n.Attrs...)
		if names != nil {
			for i := range cp.Attrs {
				cp.Attrs[i].Name = ownName(names, cp.Attrs[i].Name)
				cp.Attrs[i].Value = strings.Clone(cp.Attrs[i].Value)
			}
		}
	}
	if len(n.Children) > 0 {
		cp.Children = make([]*Node, len(n.Children))
		for i, c := range n.Children {
			cc := c.clone(names)
			cc.Parent = cp
			cp.Children[i] = cc
		}
	}
	return cp
}

// ownName returns the copy of name recorded in names, making and recording
// it on first sight.
func ownName(names map[string]string, name string) string {
	if own, ok := names[name]; ok || name == "" {
		return own
	}
	own := strings.Clone(name)
	names[name] = own
	return own
}

// Equal reports deep structural equality of the two subtrees: kind, name,
// value, attributes (order-insensitive) and the child sequences must all
// match. XIDs and timestamps are not compared; see IdentityEqual for the
// identity comparison.
func Equal(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind || a.Name != b.Name || a.Value != b.Value {
		return false
	}
	if !attrsEqual(a.Attrs, b.Attrs) {
		return false
	}
	if len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !Equal(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// IdentityEqual implements the "==" comparison of the paper's Section 7.4:
// two nodes are identity-equal when they carry the same non-zero XID.
func IdentityEqual(a, b *Node) bool {
	return a != nil && b != nil && a.XID != 0 && a.XID == b.XID
}

func attrsEqual(a, b []Attr) bool {
	if len(a) != len(b) {
		return false
	}
	for _, x := range a {
		found := false
		for _, y := range b {
			if x == y {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Hash returns a structural hash of the subtree rooted at n, covering kind,
// name, value, attributes (order-insensitive) and children order. Equal
// subtrees hash equally; it ignores XIDs and timestamps, like Equal.
func (n *Node) Hash() uint64 {
	h := fnv.New64a()
	n.hashInto(h)
	return h.Sum64()
}

func (n *Node) hashInto(h io.Writer) {
	switch n.Kind {
	case Element:
		io.WriteString(h, "\x01")
		io.WriteString(h, n.Name)
		if len(n.Attrs) > 0 {
			attrs := append([]Attr(nil), n.Attrs...)
			sort.Slice(attrs, func(i, j int) bool { return attrs[i].Name < attrs[j].Name })
			for _, a := range attrs {
				io.WriteString(h, "\x02")
				io.WriteString(h, a.Name)
				io.WriteString(h, "\x03")
				io.WriteString(h, a.Value)
			}
		}
		io.WriteString(h, "\x04")
		for _, c := range n.Children {
			c.hashInto(h)
		}
		io.WriteString(h, "\x05")
	case Text:
		io.WriteString(h, "\x06")
		io.WriteString(h, n.Value)
	}
}

// Validate checks the internal consistency of the subtree: parent pointers,
// node kinds and the element/text field invariants. It returns the first
// violation found, or nil.
func (n *Node) Validate() error {
	var err error
	n.Walk(func(d *Node) bool {
		if err != nil {
			return false
		}
		switch d.Kind {
		case Element:
			if d.Name == "" {
				err = fmt.Errorf("element node with empty name (xid %d)", d.XID)
				return false
			}
			if d.Value != "" {
				err = fmt.Errorf("element node %q carries text value %q", d.Name, d.Value)
				return false
			}
		case Text:
			if d.Name != "" || len(d.Attrs) != 0 || len(d.Children) != 0 {
				err = fmt.Errorf("text node with element fields set (value %q)", d.Value)
				return false
			}
		default:
			err = fmt.Errorf("invalid node kind %d", d.Kind)
			return false
		}
		for _, c := range d.Children {
			if c.Parent != d {
				err = fmt.Errorf("child %q of %q has wrong parent pointer", c.Name, d.Name)
				return false
			}
		}
		return true
	})
	return err
}
