package xmltree

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"txmldb/internal/model"
)

// xmlNamespace is the URL encoding/xml substitutes for the reserved "xml"
// attribute prefix.
const xmlNamespace = "http://www.w3.org/XML/1998/namespace"

// Unmarshal reads one XML document: a storage serialization produced by
// Marshal, or any document Parse accepts. It is the package's only XML
// reader, a single pass over the bytes that yields the tree encoding/xml's
// Decoder would: elements (self-closing or not) with single- or
// double-quoted attributes, character data, the five predefined entities
// and decimal/hex character references, CDATA sections as literal
// character data. Comments, processing instructions and directives
// (DOCTYPE with its internal subset) are skipped; an XML declaration must
// say version 1.0 and UTF-8 if it names either. Character data that is
// whitespace only is dropped, and adjacent runs (split by a comment, a
// processing instruction or CDATA) are merged into one text node.
// Attributes named txmldb:xid / txmldb:stamp / txmldb:tx are read as
// persisted identity and removed from the visible attributes. Malformed or
// mismatched tags, invalid UTF-8 and characters outside XML's range are
// errors.
//
// The tree's strings point into one copy of data, so any of them keeps the
// whole document alive; use CloneOwned for a tree that is kept long.
func Unmarshal(data []byte) (*Node, error) {
	root, err := decode(string(data))
	if err != nil {
		return nil, fmt.Errorf("xmltree: unmarshal: %w", err)
	}
	return root, nil
}

// Parse reads one XML document from r and returns its root element, read
// as Unmarshal reads it. Unlike Unmarshal's, the tree owns every string:
// none of them keeps the input alive, so the tree may be kept as long as
// the caller likes (the version store keeps it, and the full-text index
// keys its words by substrings of its text).
func Parse(r io.Reader) (*Node, error) {
	var b strings.Builder
	if _, err := io.Copy(&b, r); err != nil {
		return nil, fmt.Errorf("xmltree: parse: %w", err)
	}
	return ParseString(b.String())
}

// ParseString parses an XML document held in a string, as Parse does.
func ParseString(s string) (*Node, error) {
	root, err := decode(s)
	if err != nil {
		return nil, fmt.Errorf("xmltree: parse: %w", err)
	}
	return root.CloneOwned(), nil
}

// MustParse parses s and panics on error; intended for tests and examples.
func MustParse(s string) *Node {
	n, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return n
}

func decode(src string) (*Node, error) {
	d := decoder{src: src}
	return d.document()
}

// decoder holds the state of one decode. Names and values without
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
			if err := d.charData(text); err != nil {
				return nil, err
			}
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
		case '?':
			d.pos++
			err = d.procInst()
		case '!':
			d.pos++
			err = d.bang()
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

// charData adds one run of character data to the open element. A run that
// is whitespace only is dropped; a run right after a text child (the two
// were split by a comment, a processing instruction or CDATA) joins it.
func (d *decoder) charData(text string) error {
	if isBlank(text) {
		return nil
	}
	if len(d.open) == 0 {
		return d.errorf("character data outside root element")
	}
	parent := d.open[len(d.open)-1].n
	if nc := len(parent.Children); nc > 0 && parent.Children[nc-1].IsText() {
		parent.Children[nc-1].Value += text
		return nil
	}
	parent.AppendChild(d.node(Text, "", text))
	return nil
}

// procInst skips a processing instruction; d.pos is past "<?". An XML
// declaration (target "xml", anywhere in the document) must not name a
// version other than 1.0 or an encoding other than UTF-8.
func (d *decoder) procInst() error {
	target, err := d.name()
	if err != nil {
		return err
	}
	d.space()
	end := strings.Index(d.src[d.pos:], "?>")
	if end < 0 {
		return d.errorf("unexpected EOF in processing instruction")
	}
	content := d.src[d.pos : d.pos+end]
	d.pos += end + 2
	if target != "xml" {
		return nil
	}
	if v := declParam("version", content); v != "" && v != "1.0" {
		return d.errorf("unsupported XML version %q", v)
	}
	if enc := declParam("encoding", content); enc != "" && !strings.EqualFold(enc, "utf-8") {
		return d.errorf("unsupported encoding %q", enc)
	}
	return nil
}

// declParam returns the value of param="..." or param='...' in an XML
// declaration's content, "" if there is none. It reads as encoding/xml
// does: the first occurrence of param= followed by a quote counts, even
// inside a longer name.
func declParam(param, s string) string {
	param += "="
	for i := 0; i < len(s); {
		k := strings.Index(s[i:], param)
		if k < 0 || k+len(param) >= len(s)-i {
			return ""
		}
		q := s[i+k+len(param)]
		i += k + len(param) + 1
		if q == '"' || q == '\'' {
			if j := strings.IndexByte(s[i:], q); j >= 0 {
				return s[i : i+j]
			}
			return ""
		}
	}
	return ""
}

// bang reads what starts with "<!": a comment, a CDATA section or a
// directive; d.pos is past the "!".
func (d *decoder) bang() error {
	if d.eof() {
		return d.errorf("unexpected EOF after <!")
	}
	switch d.src[d.pos] {
	case '-':
		return d.comment()
	case '[':
		return d.cdata()
	}
	return d.directive()
}

// comment skips "<!-- ... -->"; a comment must not hold "--".
func (d *decoder) comment() error {
	if !strings.HasPrefix(d.src[d.pos:], "--") {
		return d.errorf("invalid sequence <!- not part of <!--")
	}
	d.pos += 2
	end := strings.Index(d.src[d.pos:], "--")
	if end < 0 || d.pos+end+2 >= len(d.src) {
		return d.errorf("unexpected EOF in comment")
	}
	d.pos += end + 2
	if d.src[d.pos] != '>' {
		return d.errorf(`invalid sequence "--" not allowed in comments`)
	}
	d.pos++
	return nil
}

// cdata reads "<![CDATA[ ... ]]>" as literal character data, with CR and
// CR LF turned into LF.
func (d *decoder) cdata() error {
	if !strings.HasPrefix(d.src[d.pos:], "[CDATA[") {
		return d.errorf("invalid <![ sequence")
	}
	d.pos += len("[CDATA[")
	end := strings.Index(d.src[d.pos:], "]]>")
	if end < 0 {
		return d.errorf("unexpected EOF in CDATA section")
	}
	text := strings.ReplaceAll(strings.ReplaceAll(d.src[d.pos:d.pos+end], "\r\n", "\n"), "\r", "\n")
	d.pos += end + 3
	if err := d.checkChars(text); err != nil {
		return err
	}
	return d.charData(text)
}

// directive skips a directive such as <!DOCTYPE ...>, internal subset
// included; d.pos is at the byte after "<!", which is taken as it is. As
// in encoding/xml, the directive ends at the first '>' outside quotes that
// closes no '<' opened inside it, and "<!-- ... -->" inside it is skipped.
func (d *decoder) directive() error {
	d.pos++
	var quote byte
	depth := 0
	for !d.eof() {
		c := d.src[d.pos]
		d.pos++
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '"' || c == '\'':
			quote = c
		case c == '>':
			if depth == 0 {
				return nil
			}
			depth--
		case c == '<':
			if !strings.HasPrefix(d.src[d.pos:], "!--") {
				depth++
				continue
			}
			end := strings.Index(d.src[d.pos+3:], "-->")
			if end < 0 {
				return d.errorf("unexpected EOF in comment")
			}
			d.pos += 3 + end + 3
		}
	}
	return d.errorf("unexpected EOF in directive")
}

func (d *decoder) startTag() error {
	tag, err := d.qname()
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
		name, err := d.qname()
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
// repeat the start tag's, which qname() checked.
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

// attrName is the name encoding/xml reports for a raw attribute name: it
// replaces "xml" and declared prefixes by their namespace URL, and drops a
// prefix declared as the empty URL.
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
			if d.ns[i].url == "" {
				return local
			}
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

// name reads a name (a processing instruction's target): a run of name
// bytes that starts like an XML name.
func (d *decoder) name() (string, error) {
	s := d.scanName()
	switch {
	case s == "" && d.eof():
		return "", d.errorf("unexpected EOF, expected a name")
	case s == "":
		return "", d.errorf("expected a name, found %q", d.src[d.pos])
	case !validName(s):
		return "", d.errorf("invalid XML name %q", s)
	}
	return s, nil
}

// qname reads an element or attribute name: a name with at most one colon.
func (d *decoder) qname() (string, error) {
	s, err := d.name()
	if err == nil && strings.Count(s, ":") > 1 {
		err = d.errorf("name %q has more than one colon", s)
	}
	return s, err
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
	s := string(d.buf)
	if err := d.checkChars(s); err != nil {
		return "", err
	}
	return s, nil
}

// checkChars checks decoded character data: valid UTF-8, and only
// characters in XML's range.
func (d *decoder) checkChars(s string) error {
	for len(s) > 0 {
		r, w := utf8.DecodeRuneInString(s)
		if r == utf8.RuneError && w == 1 {
			return d.errorf("invalid UTF-8")
		}
		if !inCharRange(r) {
			return d.errorf("illegal character code %U", r)
		}
		s = s[w:]
	}
	return nil
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
// strings.TrimSpace sees it), which the reader drops.
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
