package xmltree

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

	"txmldb/internal/model"
)

// xidAttr is the reserved attribute name used to persist XIDs when a tree is
// serialized for storage. It is stripped again on parse.
const xidAttr = "txmldb:xid"

// stampAttr persists element timestamps in storage serializations.
const stampAttr = "txmldb:stamp"

// textXIDAttr persists the identities of an element's text children, which
// have no attributes of their own: a space-separated list of
// childIndex:xid:stamp triples.
const textXIDAttr = "txmldb:tx"

// applyTextIdentities decodes a txmldb:tx attribute ("idx:xid:stamp ...")
// and assigns the identities to the element's text children by position.
func applyTextIdentities(n *Node, tx string) {
	for _, entry := range strings.Fields(tx) {
		parts := strings.Split(entry, ":")
		if len(parts) != 3 {
			continue
		}
		idx, err1 := strconv.Atoi(parts[0])
		xid, err2 := strconv.ParseUint(parts[1], 10, 64)
		stamp, err3 := strconv.ParseInt(parts[2], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			continue
		}
		if idx >= 0 && idx < len(n.Children) && n.Children[idx].IsText() {
			n.Children[idx].XID = model.XID(xid)
			n.Children[idx].Stamp = model.Time(stamp)
		}
	}
}

// SerializeOptions controls Serialize.
type SerializeOptions struct {
	// Indent pretty-prints with two-space indentation when true.
	Indent bool
	// Identity emits txmldb:xid and txmldb:stamp attributes so that the
	// persistent identity survives a round trip through storage.
	Identity bool
}

// Serialize writes the subtree rooted at n as XML to w. Compact output
// (the storage format and String) comes from a direct writer whose bytes
// are the ones encoding/xml's Encoder produces for the same tokens:
// elements are never self-closed, and text and attribute values are
// escaped with its table. Indented output goes through that Encoder.
func Serialize(w io.Writer, n *Node, opts SerializeOptions) error {
	if opts.Indent {
		return serializeIndented(w, n, opts)
	}
	b, err := render(n, opts.Identity)
	if err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("xmltree: serialize: %w", err)
	}
	return nil
}

func render(n *Node, identity bool) ([]byte, error) {
	w := xmlWriter{identity: identity}
	if err := w.node(n); err != nil {
		return nil, fmt.Errorf("xmltree: serialize: %w", err)
	}
	return w.buf, nil
}

// xmlWriter renders trees compactly into buf.
type xmlWriter struct {
	buf      []byte
	identity bool // emit the txmldb: identity attributes
}

func (w *xmlWriter) node(n *Node) error {
	switch n.Kind {
	case Text:
		w.buf = appendEscaped(w.buf, n.Value, false)
		return nil
	case Element:
		if n.Name == "" {
			return fmt.Errorf("start tag with no name")
		}
		w.buf = append(w.buf, '<')
		w.buf = append(w.buf, n.Name...)
		for _, a := range n.Attrs {
			if a.Name == "" {
				continue // encoding/xml drops unnamed attributes
			}
			w.buf = append(w.buf, ' ')
			w.buf = append(w.buf, a.Name...)
			w.buf = append(w.buf, `="`...)
			w.buf = appendEscaped(w.buf, a.Value, true)
			w.buf = append(w.buf, '"')
		}
		if w.identity {
			w.identities(n)
		}
		w.buf = append(w.buf, '>')
		for _, c := range n.Children {
			if err := w.node(c); err != nil {
				return err
			}
		}
		w.buf = append(w.buf, "</"...)
		w.buf = append(w.buf, n.Name...)
		w.buf = append(w.buf, '>')
		return nil
	default:
		return fmt.Errorf("unknown node kind %d", n.Kind)
	}
}

// identities appends the txmldb:xid, txmldb:stamp and txmldb:tx attributes.
// Their values are digits, '-', ':' and ' ', which need no escaping.
func (w *xmlWriter) identities(n *Node) {
	if n.XID != 0 {
		w.buf = append(w.buf, ` `+xidAttr+`="`...)
		w.buf = strconv.AppendUint(w.buf, uint64(n.XID), 10)
		w.buf = append(w.buf, '"')
	}
	if n.Stamp != 0 {
		w.buf = append(w.buf, ` `+stampAttr+`="`...)
		w.buf = strconv.AppendInt(w.buf, int64(n.Stamp), 10)
		w.buf = append(w.buf, '"')
	}
	open := false
	for i, c := range n.Children {
		if !c.IsText() || (c.XID == 0 && c.Stamp == 0) {
			continue
		}
		if open {
			w.buf = append(w.buf, ' ')
		} else {
			w.buf = append(w.buf, ` `+textXIDAttr+`="`...)
			open = true
		}
		w.buf = strconv.AppendInt(w.buf, int64(i), 10)
		w.buf = append(w.buf, ':')
		w.buf = strconv.AppendUint(w.buf, uint64(c.XID), 10)
		w.buf = append(w.buf, ':')
		w.buf = strconv.AppendInt(w.buf, int64(c.Stamp), 10)
	}
	if open {
		w.buf = append(w.buf, '"')
	}
}

// appendEscaped appends s escaped with encoding/xml's table: attribute
// values (escNL) as EscapeString does, character data as escapeText does
// with newlines left alone. Invalid UTF-8 and runes outside XML's
// character range become U+FFFD.
func appendEscaped(dst []byte, s string, escNL bool) []byte {
	last := 0
	for i := 0; i < len(s); {
		c := s[i]
		width := 1
		var esc string
		if c < utf8.RuneSelf {
			switch c {
			case '"':
				esc = "&#34;"
			case '\'':
				esc = "&#39;"
			case '&':
				esc = "&amp;"
			case '<':
				esc = "&lt;"
			case '>':
				esc = "&gt;"
			case '\t':
				esc = "&#x9;"
			case '\n':
				if !escNL {
					i++
					continue
				}
				esc = "&#xA;"
			case '\r':
				esc = "&#xD;"
			default:
				if c >= 0x20 {
					i++
					continue
				}
				esc = "\uFFFD"
			}
		} else {
			r, w := utf8.DecodeRuneInString(s[i:])
			width = w
			if (r != utf8.RuneError || w != 1) && inCharRange(r) {
				i += w
				continue
			}
			esc = "\uFFFD"
		}
		dst = append(dst, s[last:i]...)
		dst = append(dst, esc...)
		i += width
		last = i
	}
	return append(dst, s[last:]...)
}

// inCharRange reports whether r is an XML Char (XML 1.0 §2.2).
func inCharRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// String renders the subtree compactly (no indentation, no identity
// attributes), mainly for tests, examples and error messages.
func (n *Node) String() string {
	b, err := render(n, false)
	if err != nil {
		return fmt.Sprintf("<!serialize error: %v>", err)
	}
	return string(b)
}

// Pretty renders the subtree with indentation.
func (n *Node) Pretty() string {
	var b strings.Builder
	if err := Serialize(&b, n, SerializeOptions{Indent: true}); err != nil {
		return fmt.Sprintf("<!serialize error: %v>", err)
	}
	return b.String()
}

// Marshal renders the subtree for storage, preserving XIDs and stamps.
func Marshal(n *Node) []byte {
	b, err := render(n, true)
	if err != nil {
		panic(err) // in-memory serialization of a valid tree cannot fail
	}
	return b
}
