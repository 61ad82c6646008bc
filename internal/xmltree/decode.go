package xmltree

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"txmldb/internal/model"
)

// xmlNamespace is the URL encoding/xml substitutes for the reserved "xml"
// attribute prefix.
const xmlNamespace = "http://www.w3.org/XML/1998/namespace"

// Unmarshal parses a storage serialization produced by Marshal.
//
// It is a single-pass decoder for the language Marshal writes — elements
// (self-closing or not) with single- or double-quoted attributes, character
// data, the five predefined entities and decimal/hex character references —
// and yields the tree Parse would for the same bytes. Everything else is
// rejected with an error: comments, processing instructions, CDATA,
// DOCTYPE, malformed or mismatched tags, invalid UTF-8 and characters
// outside XML's range.
//
// The tree's strings point into one copy of data, so any of them keeps the
// whole document alive; use CloneOwned for a tree that is kept long.
func Unmarshal(data []byte) (*Node, error) {
	d := decoder{src: string(data)}
	root, err := d.document()
	if err != nil {
		return nil, fmt.Errorf("xmltree: unmarshal: %w", err)
	}
	return root, nil
}

// decoder holds the state of one Unmarshal. Names and values without
// references are substrings of src, so decoding allocates little beyond
// the nodes themselves.
type decoder struct {
	src   string
	pos   int
	root  *Node
	open  []openElem
	attrs []rawAttr   // the attributes of the start tag being read
	ns    []nsBinding // xmlns:prefix declarations of the open elements
	buf   []byte      // scratch for values with references or CRs
	slab  []Node      // nodes are handed out from here, a chunk at a time
}

type openElem struct {
	n     *Node
	tag   string // raw tag name, which the end tag must repeat
	tx    string // txmldb:tx value, applied when the element closes
	nsLen int    // len(ns) before this element's declarations
}

type rawAttr struct{ name, value string }

type nsBinding struct{ prefix, url string }

func (d *decoder) node(kind Kind, name, value string) *Node {
	if len(d.slab) == 0 {
		d.slab = make([]Node, 64)
	}
	n := &d.slab[0]
	d.slab = d.slab[1:]
	n.Kind, n.Name, n.Value = kind, name, value
	return n
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

func (d *decoder) eof() bool { return d.pos >= len(d.src) }

func (d *decoder) document() (*Node, error) {
	for !d.eof() {
		if d.src[d.pos] != '<' {
			text, err := d.text(0)
			if err != nil {
				return nil, err
			}
			if isBlank(text) {
				continue
			}
			if len(d.open) == 0 {
				return nil, d.errorf("character data outside root element")
			}
			d.open[len(d.open)-1].n.AppendChild(d.node(Text, "", text))
			continue
		}
		d.pos++
		if d.eof() {
			return nil, d.errorf("unexpected EOF after <")
		}
		var err error
		switch d.src[d.pos] {
		case '/':
			d.pos++
			err = d.endTag()
		case '!', '?':
			err = d.errorf("comments, CDATA, DOCTYPE and processing instructions are not part of the storage format")
		default:
			err = d.startTag()
		}
		if err != nil {
			return nil, err
		}
	}
	if d.root == nil {
		return nil, d.errorf("empty document")
	}
	if len(d.open) != 0 {
		return nil, d.errorf("unclosed element <%s>", d.open[len(d.open)-1].tag)
	}
	return d.root, nil
}

func (d *decoder) startTag() error {
	tag, err := d.name()
	if err != nil {
		return err
	}
	d.attrs = d.attrs[:0]
	selfClosing := false
	for {
		d.space()
		if d.eof() {
			return d.errorf("unexpected EOF in <%s>", tag)
		}
		if c := d.src[d.pos]; c == '>' || c == '/' {
			d.pos++
			if c == '/' {
				if d.eof() || d.src[d.pos] != '>' {
					return d.errorf("expected /> in <%s>", tag)
				}
				d.pos++
				selfClosing = true
			}
			break
		}
		name, err := d.name()
		if err != nil {
			return err
		}
		d.space()
		if d.eof() || d.src[d.pos] != '=' {
			return d.errorf("attribute %s without = in <%s>", name, tag)
		}
		d.pos++
		d.space()
		if d.eof() || (d.src[d.pos] != '"' && d.src[d.pos] != '\'') {
			return d.errorf("unquoted or missing value of attribute %s in <%s>", name, tag)
		}
		quote := d.src[d.pos]
		d.pos++
		value, err := d.text(quote)
		if err != nil {
			return err
		}
		d.attrs = append(d.attrs, rawAttr{name, value})
	}

	_, local := splitName(tag)
	e := openElem{n: d.node(Element, local, ""), tag: tag, nsLen: len(d.ns)}
	// Declarations apply to all attributes of their element, whatever the
	// order, so bind them before resolving any name.
	for _, a := range d.attrs {
		if prefix, p := splitName(a.name); prefix == "xmlns" {
			d.ns = append(d.ns, nsBinding{p, a.value})
		}
	}
	for _, a := range d.attrs {
		switch name := d.attrName(a.name); name {
		case xidAttr:
			if v, err := strconv.ParseUint(a.value, 10, 64); err == nil {
				e.n.XID = model.XID(v)
			}
		case stampAttr:
			if v, err := strconv.ParseInt(a.value, 10, 64); err == nil {
				e.n.Stamp = model.Time(v)
			}
		case textXIDAttr:
			e.tx = a.value
		case "xmlns", "xmlns:txmldb":
		default:
			e.n.Attrs = append(e.n.Attrs, Attr{Name: name, Value: a.value})
		}
	}

	if len(d.open) == 0 {
		if d.root != nil {
			return d.errorf("multiple root elements")
		}
		d.root = e.n
	} else {
		d.open[len(d.open)-1].n.AppendChild(e.n)
	}
	d.open = append(d.open, e)
	if selfClosing {
		d.close()
	}
	return nil
}

// endTag reads an end tag. Its name needs no checks of its own: it must
// repeat the start tag's, which name() checked.
func (d *decoder) endTag() error {
	tag := d.scanName()
	d.space()
	if d.eof() || d.src[d.pos] != '>' {
		return d.errorf("invalid characters between </%s and >", tag)
	}
	d.pos++
	if len(d.open) == 0 {
		return d.errorf("unexpected end element </%s>", tag)
	}
	if top := d.open[len(d.open)-1].tag; top != tag {
		return d.errorf("element <%s> closed by </%s>", top, tag)
	}
	d.close()
	return nil
}

func (d *decoder) close() {
	e := d.open[len(d.open)-1]
	d.open = d.open[:len(d.open)-1]
	if e.tx != "" {
		applyTextIdentities(e.n, e.tx)
	}
	d.ns = d.ns[:e.nsLen]
}

// splitName splits a name into prefix and local part the way encoding/xml
// does: only at a colon with text on both sides.
func splitName(s string) (prefix, local string) {
	if p, l, ok := strings.Cut(s, ":"); ok && p != "" && l != "" {
		return p, l
	}
	return "", s
}

// attrName is the name Parse reports for a raw attribute name:
// encoding/xml replaces "xml" and declared prefixes by their namespace URL.
func (d *decoder) attrName(raw string) string {
	prefix, local := splitName(raw)
	switch prefix {
	case "", "xmlns":
		return raw
	case "xml":
		return xmlNamespace + ":" + local
	}
	for i := len(d.ns) - 1; i >= 0; i-- {
		if d.ns[i].prefix == prefix {
			return d.ns[i].url + ":" + local
		}
	}
	return raw
}

// scanName reads the run of name bytes at d.pos (encoding/xml's
// delimiting: any ASCII byte outside isNameByte ends a name).
func (d *decoder) scanName() string {
	start := d.pos
	for !d.eof() && (d.src[d.pos] >= utf8.RuneSelf || isNameByte(d.src[d.pos])) {
		d.pos++
	}
	return d.src[start:d.pos]
}

// name reads an element or attribute name: a run of name bytes that starts
// like an XML name and holds at most one colon.
func (d *decoder) name() (string, error) {
	s := d.scanName()
	switch {
	case s == "" && d.eof():
		return "", d.errorf("unexpected EOF, expected a name")
	case s == "":
		return "", d.errorf("expected a name, found %q", d.src[d.pos])
	case strings.Count(s, ":") > 1:
		return "", d.errorf("name %q has more than one colon", s)
	case !validName(s):
		return "", d.errorf("invalid XML name %q", s)
	}
	return s, nil
}

func validName(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return isWideName(s)
		}
	}
	return isNameStart(s[0])
}

func isNameByte(c byte) bool {
	return 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' ||
		c == '_' || c == ':' || c == '.' || c == '-'
}

func isNameStart(c byte) bool {
	return 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || c == '_' || c == ':'
}

func (d *decoder) space() {
	for !d.eof() {
		switch d.src[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// text reads character data up to the next '<' (quote 0) or an attribute
// value up to and past its closing quote. The common case — no reference,
// no CR — returns a substring of the input; the rest goes to slowText.
func (d *decoder) text(quote byte) (string, error) {
	start := d.pos
	for !d.eof() {
		c := d.src[d.pos]
		switch {
		case c == quote && quote != 0:
			d.pos++
			return d.src[start : d.pos-1], nil
		case c == '<':
			if quote != 0 {
				return "", d.errorf("unescaped < inside quoted string")
			}
			return d.src[start:d.pos], nil
		case c == '&' || c == '\r':
			return d.slowText(start, quote)
		case c == '>':
			if quote == 0 && d.pos-start >= 2 && d.src[d.pos-2:d.pos] == "]]" {
				return "", d.errorf("unescaped ]]> not in CDATA section")
			}
			d.pos++
		case c >= utf8.RuneSelf:
			r, w := utf8.DecodeRuneInString(d.src[d.pos:])
			if r == utf8.RuneError && w == 1 {
				return "", d.errorf("invalid UTF-8")
			}
			if !inCharRange(r) {
				return "", d.errorf("illegal character code %U", r)
			}
			d.pos += w
		case c < 0x20 && c != '\t' && c != '\n':
			return "", d.errorf("illegal character code %U", rune(c))
		default:
			d.pos++
		}
	}
	if quote != 0 {
		return "", d.errorf("unexpected EOF in attribute value")
	}
	return d.src[start:], nil
}

// slowText continues text from d.pos into the scratch buffer, decoding
// references and turning CR and CR LF into LF as encoding/xml does, then
// checks the decoded characters.
func (d *decoder) slowText(start int, quote byte) (string, error) {
	d.buf = append(d.buf[:0], d.src[start:d.pos]...)
	var b0, b1 byte // the previous two input bytes, for the ]]> check
	if d.pos-start >= 2 {
		b0 = d.src[d.pos-2]
	}
	if d.pos-start >= 1 {
		b1 = d.src[d.pos-1]
	}
	for {
		if d.eof() {
			if quote != 0 {
				return "", d.errorf("unexpected EOF in attribute value")
			}
			break
		}
		c := d.src[d.pos]
		if c == quote && quote != 0 {
			d.pos++
			break
		}
		if c == '<' {
			if quote != 0 {
				return "", d.errorf("unescaped < inside quoted string")
			}
			break
		}
		if c == '>' && quote == 0 && b0 == ']' && b1 == ']' {
			return "", d.errorf("unescaped ]]> not in CDATA section")
		}
		if c == '&' {
			var err error
			if d.buf, err = d.reference(d.buf); err != nil {
				return "", err
			}
			b0, b1 = 0, 0
			continue
		}
		d.pos++
		switch {
		case c == '\r':
			d.buf = append(d.buf, '\n')
		case c == '\n' && b1 == '\r':
			// The CR already produced the LF.
		default:
			d.buf = append(d.buf, c)
		}
		b0, b1 = b1, c
	}
	for b := d.buf; len(b) > 0; {
		r, w := utf8.DecodeRune(b)
		if r == utf8.RuneError && w == 1 {
			return "", d.errorf("invalid UTF-8")
		}
		if !inCharRange(r) {
			return "", d.errorf("illegal character code %U", r)
		}
		b = b[w:]
	}
	return string(d.buf), nil
}

// reference decodes the entity or character reference starting at d.pos
// ('&') and appends its text to buf.
func (d *decoder) reference(buf []byte) ([]byte, error) {
	semi := strings.IndexByte(d.src[d.pos:], ';')
	if semi < 0 {
		return nil, d.errorf("invalid character entity (no semicolon)")
	}
	ref := d.src[d.pos+1 : d.pos+semi]
	if num, ok := strings.CutPrefix(ref, "#"); ok {
		base := 10
		if hex, ok := strings.CutPrefix(num, "x"); ok {
			num, base = hex, 16
		}
		n, err := strconv.ParseUint(num, base, 64)
		if err != nil || n > unicode.MaxRune {
			return nil, d.errorf("invalid character entity &%s;", ref)
		}
		d.pos += semi + 1
		return utf8.AppendRune(buf, rune(n)), nil
	}
	var r byte
	switch ref {
	case "lt":
		r = '<'
	case "gt":
		r = '>'
	case "amp":
		r = '&'
	case "apos":
		r = '\''
	case "quot":
		r = '"'
	default:
		return nil, d.errorf("invalid character entity &%s;", ref)
	}
	d.pos += semi + 1
	return append(buf, r), nil
}

// isBlank reports whether character data is whitespace only (as
// strings.TrimSpace sees it), which both readers drop.
func isBlank(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
		case c < utf8.RuneSelf:
			return false
		default:
			return strings.TrimSpace(s[i:]) == ""
		}
	}
	return true
}
