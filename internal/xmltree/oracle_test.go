package xmltree

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"txmldb/internal/model"
)

// The compact writer's oracle is encoding/xml's Encoder driven by
// encodeNode, the encoder behind Indent mode. The reader's oracle is
// OracleParse, encoding/xml's Decoder.

// OracleSerialize renders n compactly through encoding/xml's Encoder.
func OracleSerialize(n *Node, opts SerializeOptions) (string, error) {
	var b strings.Builder
	enc := xml.NewEncoder(&b)
	if err := encodeNode(enc, n, opts); err != nil {
		return "", err
	}
	if err := enc.Flush(); err != nil {
		return "", err
	}
	return b.String(), nil
}

// OracleParse is the reader's oracle: encoding/xml's Decoder turned into a
// tree by the rules the reader implements. Whitespace-only character data
// is dropped and adjacent character data merged; comments, processing
// instructions and directives are skipped; the txmldb identity attributes
// become XIDs and stamps.
func OracleParse(r io.Reader) (*Node, error) {
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
			return nil, fmt.Errorf("xmltree: oracle: %w", err)
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
					return nil, fmt.Errorf("xmltree: oracle: multiple root elements")
				}
				root = n
			} else {
				stack[len(stack)-1].AppendChild(n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: oracle: unbalanced end element %q", t.Name.Local)
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
				return nil, fmt.Errorf("xmltree: oracle: character data outside root element")
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
		return nil, fmt.Errorf("xmltree: oracle: empty document")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmltree: oracle: unclosed element %q", stack[len(stack)-1].Name)
	}
	return root, nil
}

// CheckCodec checks the codec against the oracles on one tree: with and
// without identities the compact writer is byte-equal to encoding/xml's
// Encoder, and the reader reads Marshal's bytes as encoding/xml does,
// identities included.
func CheckCodec(t testing.TB, n *Node) {
	t.Helper()
	for _, opts := range []SerializeOptions{{}, {Identity: true}} {
		want, err := OracleSerialize(n, opts)
		if err != nil {
			t.Fatalf("oracle %+v: %v", opts, err)
		}
		var got bytes.Buffer
		if err := Serialize(&got, n, opts); err != nil {
			t.Fatalf("Serialize %+v: %v", opts, err)
		}
		if got.String() != want {
			t.Fatalf("Serialize %+v differs from encoding/xml:\n got %q\nwant %q", opts, got.String(), want)
		}
	}
	checkAgainstOracle(t, Marshal(n))
}

// SameTree is Equal plus identical XIDs and stamps on every node, and
// intact parent pointers on a.
func SameTree(a, b *Node) bool {
	if !Equal(a, b) || a.Validate() != nil {
		return false
	}
	if a.XID != b.XID || a.Stamp != b.Stamp || len(a.Attrs) != len(b.Attrs) {
		return false
	}
	for i := range a.Attrs {
		if a.Attrs[i] != b.Attrs[i] {
			return false
		}
	}
	for i := range a.Children {
		if !SameTree(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// nastyStrings carry everything the escaper has to get right.
var nastyStrings = []string{
	"", " ", "plain", `"`, "'", "&", "<", ">", "\t", "\n", "\r", "\r\n", "a\rb",
	"]]>", "\uFFFD", "\xff", "a\xc3", "\xed\xa0\x80", "\x00", "\x01", "\x1f", "\x7f",
	"\U0001F600", "寿司", "\u00a0", "\u0085", "\ufffe", "\uffff", "&amp;", "&#65;",
}

// nastyTree builds a random tree whose names are valid and whose text
// and attribute values are drawn from nastyStrings, with random identities.
func nastyTree(r *rand.Rand, depth int) *Node {
	pick := func() string {
		var b strings.Builder
		for k := r.Intn(4); k >= 0; k-- {
			b.WriteString(nastyStrings[r.Intn(len(nastyStrings))])
		}
		return b.String()
	}
	names := []string{"a", "b", "restaurant", "x-y", "_z", "a.b", "ns:el", "é"}
	n := NewElement(names[r.Intn(len(names))])
	if r.Intn(2) == 0 {
		n.XID = model.XID(r.Int63())
		n.Stamp = model.Time(r.Int63() - r.Int63())
	}
	for k := r.Intn(3); k > 0; k-- {
		n.Attrs = append(n.Attrs, Attr{Name: names[r.Intn(len(names))], Value: pick()})
	}
	kids := r.Intn(4)
	if depth <= 0 {
		kids = 0
	}
	for i := 0; i < kids; i++ {
		if r.Intn(2) == 0 {
			c := NewText(pick())
			if r.Intn(2) == 0 {
				c.XID, c.Stamp = model.XID(r.Intn(1000)+1), model.Time(r.Intn(1000))
			}
			n.AppendChild(c)
		} else {
			n.AppendChild(nastyTree(r, depth-1))
		}
	}
	return n
}

func TestCodecMatchesEncodingXMLOnNastyTrees(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		CheckCodec(t, nastyTree(r, 4))
	}
}

func TestSerializeErrorsLikeOracle(t *testing.T) {
	for _, n := range []*Node{
		NewElement(""),
		Elem("a", NewElement("")),
		{Kind: Kind(7)},
	} {
		if _, err := OracleSerialize(n, SerializeOptions{}); err == nil {
			t.Fatalf("oracle accepted %#v", n)
		}
		if err := Serialize(&bytes.Buffer{}, n, SerializeOptions{}); err == nil {
			t.Errorf("Serialize accepted a tree encoding/xml rejects: %#v", n)
		}
	}
	// Unnamed attributes are dropped, not rejected.
	n := NewElement("a")
	n.Attrs = []Attr{{Name: "", Value: "v"}, {Name: "k", Value: "w"}}
	CheckCodec(t, n)
}

// checkAgainstOracle holds the reader to encoding/xml on one input: Parse
// and Unmarshal accept exactly when the oracle does, and then all three
// trees are the same.
func checkAgainstOracle(t testing.TB, in []byte) {
	t.Helper()
	want, werr := OracleParse(bytes.NewReader(in))
	got, err := Parse(bytes.NewReader(in))
	if (err == nil) != (werr == nil) {
		t.Fatalf("Parse err = %v, oracle err = %v on %q", err, werr, in)
	}
	stored, uerr := Unmarshal(in)
	if (uerr == nil) != (err == nil) {
		t.Fatalf("Unmarshal err = %v, Parse err = %v on %q", uerr, err, in)
	}
	if err != nil {
		return
	}
	if !SameTree(got, want) {
		t.Fatalf("Parse and the oracle disagree on %q:\n%s\n%s", in, got.Pretty(), want.Pretty())
	}
	if !SameTree(stored, got) {
		t.Fatalf("Unmarshal and Parse disagree on %q:\n%s\n%s", in, stored.Pretty(), got.Pretty())
	}
}

// TestUnmarshalRejectsOutsideGrammar: malformed documents, and documents
// the tree model cannot hold, are errors for the reader and the oracle.
func TestUnmarshalRejectsOutsideGrammar(t *testing.T) {
	for _, in := range []string{
		"", "  ", "text", "<a>", "<a></b>", "<a></a><b/>", "<a/>x", "</a>", "<a>]]></a>",
		"<a x=1/>", "<a x/>", "<a x=\"1/>", "<a x=\"<\"/>", "<a>&bogus;</a>", "<a>&amp</a>",
		"<a>&#0;</a>", "<a>&#xFFFE;</a>", "<a>&#x110000;</a>", "<a>&#X41;</a>", "<a>&#;</a>",
		"<a>\x00</a>", "<a>\x01</a>", "<a>\xff</a>", "<1a/>", "<a:b:c/>", "< a/>", "<a / >",
		"<a>\ufffe</a>", "<a x='1' / >",
		// External grammar gone wrong.
		"<a><!-- c -- d --></a>", "<a><!-- c ---></a>", "<a><!- c --></a>", "<a><!-- c </a>",
		"<?xml version=\"1.1\"?><a/>", "<?xml version='2.0'?><a/>",
		"<?xml version=\"1.0\" encoding=\"ISO-8859-1\"?><a/>", "<?xml encoding='latin1'?><a/>",
		"<?xml fooversion='1.1'?><a/>", "<a><? pi?></a>", "<a><?pi x ?</a>", "<?1pi?><a/>",
		"<!DOCTYPE a [<!ELEMENT a ANY>]<a/>", "<!DOCTYPE a '>' <a/>", "<!DOCTYPE a <!-- > --><a/>",
		"<a><![CDATA[x]]</a>", "<a><![CDATA[\x00]]></a>", "<a><![CDATA[\xff]]></a>",
		"<a><![cdata[x]]></a>", "<![CDATA[x]]><a/>", "<a/><![CDATA[x]]>",
	} {
		if n, err := Unmarshal([]byte(in)); err == nil {
			t.Errorf("Unmarshal(%q) accepted: %s", in, n)
		}
		if _, err := OracleParse(strings.NewReader(in)); err == nil {
			t.Errorf("the oracle accepts %q", in)
		}
	}
}

// TestUnmarshalAgreesWithParse covers inputs Marshal never writes but
// the reader accepts, and reads as encoding/xml does.
func TestUnmarshalAgreesWithParse(t *testing.T) {
	for _, in := range []string{
		`<a x='1' y="2"/>`, `<a x = "1"y='2'></a >`, "<a>\r\nx\ry</a>", "<a x=\"\r\n\"/>",
		"<a>&#65;&#x42;&#x1F600;&#xD800;&lt;&gt;&amp;&apos;&quot;</a>",
		`<a xmlns:p="urn:p" p:k="v" xml:lang="en" q:k="w"><b p:k="x"/></a>`,
		`<a xmlns:p="" p:k="v"/>`, `<p:a xmlns:p="urn:p" xmlns="urn:d"><p:b/></p:a>`,
		`<a xmlns:txmldb="other" txmldb:xid="5"/>`, `<a txmldb:xid="+5" txmldb:stamp="-7"/>`,
		`<a txmldb:tx=" 0:1:2  junk 1:2:x ">t</a>`, "<p:a>x</p:a>", "<:a/>", "<a:/>",
		"<é>x</é>", "\n<a/>\n", "<a>\u00a0</a>", "<a>\u00a0x</a>", "<a> ] ]> ]]&gt; </a>",
		`<a txmldb:tx="0:1:2" txmldb:tx="0:3:4">t</a>`,
		// External grammar: comments, declarations, processing
		// instructions, directives and CDATA.
		"<a><!-- c --></a>", "<?xml version=\"1.0\"?><a/>", "<a><?pi x?></a>",
		"<!DOCTYPE a><a/>", "<a><![CDATA[x]]></a>",
		"<a>x<!--c--> <!--d-->y</a>", "<a>x<?p?>y<![CDATA[ ]]>z</a>", "<a>x<b/><!---->y</a>",
		"<?xml version='1.0' encoding='utf-8' standalone='yes'?>\n<!-- head -->\n<a/>\n<!-- tail --><?end?>",
		"<?xml encoding=\"Utf-8\"?><a/>", "<?xml version=1.1?><a/>", "<?xml-stylesheet href='s.xsl'?><a/>",
		"<?a:b:c?><a/>", "<?é?><a/>", "<a><?pi \xff?></a>", "<a><!-- \xff --></a>", "<!-- - - --><a/>",
		"<!DOCTYPE a [\n<!ELEMENT a (#PCDATA)>\n<!ENTITY e \"<'>\">\n<!-- ] > -->\n]><a/>",
		"<!'><a/>", "<!>x><a/>", "<!a<b>><a/>", "<!a<!-x>><a/>", "<!a<!--->-->><a/>",
		"<a><![CDATA[<&>]]]></a>", "<a><![CDATA[x\r\ny\rz]]></a>", "<a>t<![CDATA[]]>u</a>",
		"<a txmldb:tx=\"1:7:8\"><b/>x<!--c-->y</a>",
	} {
		if _, err := Unmarshal([]byte(in)); err != nil {
			t.Errorf("Unmarshal(%q): %v", in, err)
		}
		checkAgainstOracle(t, []byte(in))
	}
}

// TestUnmarshalNameBytes compares the reader with the oracle on every
// ASCII byte at the start and inside an element name, an attribute name
// and a processing instruction's target.
func TestUnmarshalNameBytes(t *testing.T) {
	for c := 0; c < 0x80; c++ {
		s := string(rune(c))
		for _, in := range []string{
			"<" + s + "a/>", "<a" + s + "b/>", "<a " + s + "k=\"v\"/>", "<a k" + s + "=\"v\"/>",
			"<?" + s + "a?><a/>", "<?a" + s + "b?><a/>",
		} {
			checkAgainstOracle(t, []byte(in))
		}
	}
}

func FuzzParse(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		f.Add(Marshal(nastyTree(r, 3)))
	}
	for _, in := range fuzzSeeds {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkAgainstOracle(t, data) })
}

// fuzzSeeds are a stored document and a stored delta as the version store
// writes them (a restaurant guide version and its <txdelta>), then external
// documents: tdocgen's output and the constructs storage never writes.
var fuzzSeeds = []string{
	`<guide txmldb:xid="1" txmldb:stamp="978393600000"><restaurant cuisine="w0003" txmldb:xid="2" txmldb:stamp="978393600000"><name txmldb:xid="3" txmldb:stamp="978393600000" txmldb:tx="0:4:978393600000">rest-000-0001</name><price txmldb:xid="5" txmldb:stamp="978393600000" txmldb:tx="0:6:978393600000">15</price><info txmldb:xid="7" txmldb:stamp="978393600000"><chef txmldb:xid="8" txmldb:stamp="978393600000" txmldb:tx="0:9:978393600000">w0001</chef><specialty txmldb:xid="10" txmldb:stamp="978393600000" txmldb:tx="0:11:978393600000">w0000 w0012</specialty></info></restaurant></guide>`,
	`<txdelta fromver="1" tover="2" fromstamp="978393600000" tostamp="978480000000"><insert parent="1" pos="1"><restaurant cuisine="w0002" txmldb:xid="12" txmldb:stamp="978480000000"><name txmldb:xid="13" txmldb:stamp="978480000000" txmldb:tx="0:14:978480000000">rest-000-0002</name></restaurant></insert><update xid="6"><old>15</old><new>18</new></update><restamp xid="1" old="978393600000" new="978480000000"></restamp></txdelta>`,
	"<!-- http://guide.com/restaurants.xml version 2 at 2001-01-02 -->\n<guide>\n  <restaurant cuisine=\"w0003\">\n    <name>rest-000-0001</name>\n    <price>15</price>\n  </restaurant>\n</guide>\n",
	"<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!DOCTYPE guide [\n  <!ELEMENT guide (restaurant*)>\n  <!ATTLIST restaurant cuisine CDATA #IMPLIED>\n  <!-- a comment with <angles> -->\n  <!ENTITY note \"a <quoted> '>' value\">\n]>\n<?render mode=\"full\"?>\n<guide xmlns:g=\"urn:g\" g:rev=\"3\"><restaurant cuisine=\"thai\">Pad &amp; <![CDATA[<&>]]> see<!-- c --> <!-- d -->too</restaurant></guide>",
	"<a>x<!--c--> <!--d-->y<?pi?><![CDATA[\r\n]]>z</a>",
}
