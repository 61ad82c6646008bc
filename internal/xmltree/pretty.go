package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// isWideName reports whether encoding/xml accepts name, a run of name bytes
// containing at least one non-ASCII byte, as an XML name. The reader checks
// such names against encoding/xml's own name table so that it accepts
// exactly the non-ASCII names encoding/xml does. The name is asked as a
// processing instruction's target, which has no rule about colons; the
// reader applies that rule to element and attribute names itself.
func isWideName(name string) bool {
	tok, err := xml.NewDecoder(strings.NewReader("<?" + name + "?>")).RawToken()
	_, ok := tok.(xml.ProcInst)
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
