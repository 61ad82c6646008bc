package xmltree

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"txmldb/internal/model"
)

// Parse reads one XML document from r and returns its root element.
// Character data consisting only of whitespace between elements is dropped;
// other character data becomes text nodes. Comments, processing instructions
// and directives are skipped. Attributes named txmldb:xid / txmldb:stamp are
// interpreted as persisted identity and removed from the visible attributes.
//
// Parse is the reader for external input (namespaces, comments, DOCTYPE and
// all) and is built on encoding/xml. Storage serializations go through the
// stricter and much cheaper Unmarshal.
func Parse(r io.Reader) (*Node, error) {
	dec := xml.NewDecoder(r)
	var root *Node
	var stack []*Node
	pendingTX := make(map[*Node]string)
	for {
		tok, err := dec.Token()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := NewElement(t.Name.Local)
			for _, a := range t.Attr {
				name := a.Name.Local
				if a.Name.Space != "" {
					name = a.Name.Space + ":" + a.Name.Local
				}
				switch name {
				case xidAttr:
					if v, err := strconv.ParseUint(a.Value, 10, 64); err == nil {
						n.XID = model.XID(v)
					}
				case stampAttr:
					if v, err := strconv.ParseInt(a.Value, 10, 64); err == nil {
						n.Stamp = model.Time(v)
					}
				case textXIDAttr:
					pendingTX[n] = a.Value
				case "xmlns", "xmlns:txmldb":
					// Namespace declarations introduced by serialization.
				default:
					n.Attrs = append(n.Attrs, Attr{Name: name, Value: a.Value})
				}
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("xmltree: parse: multiple root elements")
				}
				root = n
			} else {
				stack[len(stack)-1].AppendChild(n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: parse: unbalanced end element %q", t.Name.Local)
			}
			closed := stack[len(stack)-1]
			if tx, ok := pendingTX[closed]; ok {
				applyTextIdentities(closed, tx)
				delete(pendingTX, closed)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			text := string(t)
			if strings.TrimSpace(text) == "" {
				continue
			}
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: parse: character data outside root element")
			}
			parent := stack[len(stack)-1]
			// Merge adjacent character data (entity boundaries etc.).
			if nc := len(parent.Children); nc > 0 && parent.Children[nc-1].IsText() {
				parent.Children[nc-1].Value += text
			} else {
				parent.AppendChild(NewText(text))
			}
		case xml.Comment, xml.ProcInst, xml.Directive:
			// Not part of the data model.
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmltree: parse: empty document")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmltree: parse: unclosed element %q", stack[len(stack)-1].Name)
	}
	return root, nil
}

// ParseString parses an XML document held in a string.
func ParseString(s string) (*Node, error) { return Parse(strings.NewReader(s)) }

// MustParse parses s and panics on error; intended for tests and examples.
func MustParse(s string) *Node {
	n, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return n
}

// isWideName reports whether encoding/xml accepts name, a run of name bytes
// containing at least one non-ASCII byte, as an XML name. Unmarshal checks
// such names against encoding/xml's own name table so that it accepts
// exactly the non-ASCII names Parse does.
func isWideName(name string) bool {
	tok, err := xml.NewDecoder(strings.NewReader("<" + name + "/>")).RawToken()
	_, ok := tok.(xml.StartElement)
	return ok && err == nil
}

// serializeIndented is Serialize's Indent mode: encoding/xml's Encoder with
// a two-space indent. Pretty output is for people, not storage, so it keeps
// the Encoder's layout rules rather than a copy of them.
func serializeIndented(w io.Writer, n *Node, opts SerializeOptions) error {
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := encodeNode(enc, n, opts); err != nil {
		return fmt.Errorf("xmltree: serialize: %w", err)
	}
	if err := enc.Flush(); err != nil {
		return fmt.Errorf("xmltree: serialize: %w", err)
	}
	return nil
}

func encodeNode(enc *xml.Encoder, n *Node, opts SerializeOptions) error {
	switch n.Kind {
	case Text:
		return enc.EncodeToken(xml.CharData(n.Value))
	case Element:
		start := xml.StartElement{Name: xml.Name{Local: n.Name}}
		for _, a := range n.Attrs {
			start.Attr = append(start.Attr, xml.Attr{Name: xml.Name{Local: a.Name}, Value: a.Value})
		}
		if opts.Identity {
			if n.XID != 0 {
				start.Attr = append(start.Attr, xml.Attr{
					Name: xml.Name{Local: xidAttr}, Value: strconv.FormatUint(uint64(n.XID), 10),
				})
			}
			if n.Stamp != 0 {
				start.Attr = append(start.Attr, xml.Attr{
					Name: xml.Name{Local: stampAttr}, Value: strconv.FormatInt(int64(n.Stamp), 10),
				})
			}
			if tx := textIdentities(n); tx != "" {
				start.Attr = append(start.Attr, xml.Attr{
					Name: xml.Name{Local: textXIDAttr}, Value: tx,
				})
			}
		}
		if err := enc.EncodeToken(start); err != nil {
			return err
		}
		for _, c := range n.Children {
			if err := encodeNode(enc, c, opts); err != nil {
				return err
			}
		}
		return enc.EncodeToken(xml.EndElement{Name: start.Name})
	default:
		return fmt.Errorf("unknown node kind %d", n.Kind)
	}
}

// textIdentities encodes the identities of n's text children as
// "idx:xid:stamp" fields, or "" when none carry an identity.
func textIdentities(n *Node) string {
	var b strings.Builder
	for i, c := range n.Children {
		if !c.IsText() || (c.XID == 0 && c.Stamp == 0) {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%d:%d", i, uint64(c.XID), int64(c.Stamp))
	}
	return b.String()
}
