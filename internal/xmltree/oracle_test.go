package xmltree

import (
	"bytes"
	"encoding/xml"
	"math/rand"
	"strings"
	"testing"

	"txmldb/internal/model"
)

// The compact writer's oracle is encoding/xml's Encoder driven by
// encodeNode, the encoder behind Indent mode. The reading side's oracle is
// Parse.

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

// CheckCodec checks the codec against the oracles on one tree: with and
// without identities the compact writer is byte-equal to encoding/xml's
// Encoder, and Unmarshal of Marshal's bytes equals Parse of them,
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
	data := Marshal(n)
	viaParse, perr := ParseString(string(data))
	got, err := Unmarshal(data)
	if (perr == nil) != (err == nil) {
		t.Fatalf("Unmarshal err = %v, Parse err = %v on %q", err, perr, data)
	}
	if err == nil && !SameTree(got, viaParse) {
		t.Fatalf("Unmarshal and Parse disagree on %q:\n%s\n%s", data, got.Pretty(), viaParse.Pretty())
	}
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

// TestUnmarshalRejectsOutsideGrammar: Unmarshal reads only what Marshal
// writes, even where Parse is more lenient.
func TestUnmarshalRejectsOutsideGrammar(t *testing.T) {
	for _, in := range []string{
		"", "  ", "text", "<a>", "<a></b>", "<a></a><b/>", "<a/>x", "</a>",
		"<a><!-- c --></a>", "<?xml version=\"1.0\"?><a/>", "<a><?pi x?></a>",
		"<!DOCTYPE a><a/>", "<a><![CDATA[x]]></a>", "<a>]]></a>",
		"<a x=1/>", "<a x/>", "<a x=\"1/>", "<a x=\"<\"/>", "<a>&bogus;</a>", "<a>&amp</a>",
		"<a>&#0;</a>", "<a>&#xFFFE;</a>", "<a>&#x110000;</a>", "<a>&#X41;</a>", "<a>&#;</a>",
		"<a>\x00</a>", "<a>\x01</a>", "<a>\xff</a>", "<1a/>", "<a:b:c/>", "< a/>", "<a / >",
		"<a>\ufffe</a>", "<a x='1' / >",
	} {
		if n, err := Unmarshal([]byte(in)); err == nil {
			t.Errorf("Unmarshal(%q) accepted: %s", in, n)
		}
	}
}

// TestUnmarshalAgreesWithParse covers inputs Marshal never writes but
// Unmarshal accepts, and Parse reads the same way.
func TestUnmarshalAgreesWithParse(t *testing.T) {
	for _, in := range []string{
		`<a x='1' y="2"/>`, `<a x = "1"y='2'></a >`, "<a>\r\nx\ry</a>", "<a x=\"\r\n\"/>",
		"<a>&#65;&#x42;&#x1F600;&#xD800;&lt;&gt;&amp;&apos;&quot;</a>",
		`<a xmlns:p="urn:p" p:k="v" xml:lang="en" q:k="w"><b p:k="x"/></a>`,
		`<a xmlns:txmldb="other" txmldb:xid="5"/>`, `<a txmldb:xid="+5" txmldb:stamp="-7"/>`,
		`<a txmldb:tx=" 0:1:2  junk 1:2:x ">t</a>`, "<p:a>x</p:a>", "<:a/>", "<a:/>",
		"<é>x</é>", "\n<a/>\n", "<a>\u00a0</a>", "<a>\u00a0x</a>", "<a> ] ]> ]]&gt; </a>",
		`<a txmldb:tx="0:1:2" txmldb:tx="0:3:4">t</a>`,
	} {
		want, perr := ParseString(in)
		got, err := Unmarshal([]byte(in))
		if err != nil {
			t.Errorf("Unmarshal(%q): %v", in, err)
			continue
		}
		if perr != nil {
			t.Errorf("Unmarshal(%q) accepted what Parse rejects (%v)", in, perr)
			continue
		}
		if !SameTree(got, want) {
			t.Errorf("Unmarshal(%q) = %s, Parse = %s", in, got.Pretty(), want.Pretty())
		}
	}
}

// TestUnmarshalNameBytes compares both readers on every ASCII byte at the
// start and inside an element and an attribute name.
func TestUnmarshalNameBytes(t *testing.T) {
	for c := 0; c < 0x80; c++ {
		s := string(rune(c))
		for _, in := range []string{
			"<" + s + "a/>", "<a" + s + "b/>", "<a " + s + "k=\"v\"/>", "<a k" + s + "=\"v\"/>",
		} {
			want, perr := ParseString(in)
			got, err := Unmarshal([]byte(in))
			if err == nil && (perr != nil || !SameTree(got, want)) {
				t.Errorf("Unmarshal(%q) accepted, Parse: %v", in, perr)
			}
		}
	}
}

func FuzzUnmarshal(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		f.Add(Marshal(nastyTree(r, 3)))
	}
	for _, in := range fuzzSeeds {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Unmarshal(data)
		if err != nil {
			return
		}
		want, perr := Parse(bytes.NewReader(data))
		if perr != nil {
			t.Fatalf("Unmarshal accepted what Parse rejects (%v): %q", perr, data)
		}
		if !SameTree(got, want) {
			t.Fatalf("Unmarshal and Parse disagree on %q:\n%s\n%s", data, got.Pretty(), want.Pretty())
		}
	})
}

// fuzzSeeds are a stored document and a stored delta as the version store
// writes them (a restaurant guide version and its <txdelta>).
var fuzzSeeds = []string{
	`<guide txmldb:xid="1" txmldb:stamp="978393600000"><restaurant cuisine="w0003" txmldb:xid="2" txmldb:stamp="978393600000"><name txmldb:xid="3" txmldb:stamp="978393600000" txmldb:tx="0:4:978393600000">rest-000-0001</name><price txmldb:xid="5" txmldb:stamp="978393600000" txmldb:tx="0:6:978393600000">15</price><info txmldb:xid="7" txmldb:stamp="978393600000"><chef txmldb:xid="8" txmldb:stamp="978393600000" txmldb:tx="0:9:978393600000">w0001</chef><specialty txmldb:xid="10" txmldb:stamp="978393600000" txmldb:tx="0:11:978393600000">w0000 w0012</specialty></info></restaurant></guide>`,
	`<txdelta fromver="1" tover="2" fromstamp="978393600000" tostamp="978480000000"><insert parent="1" pos="1"><restaurant cuisine="w0002" txmldb:xid="12" txmldb:stamp="978480000000"><name txmldb:xid="13" txmldb:stamp="978480000000" txmldb:tx="0:14:978480000000">rest-000-0002</name></restaurant></insert><update xid="6"><old>15</old><new>18</new></update><restamp xid="1" old="978393600000" new="978480000000"></restamp></txdelta>`,
}
