package xmltree_test

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"txmldb/internal/core"
	"txmldb/internal/model"
	"txmldb/internal/tdocgen"
	"txmldb/internal/xmltree"
)

// externalGuide is a document with what storage never writes: an XML
// declaration, a DOCTYPE with an internal subset, a processing instruction
// and a CDATA section holding markup characters between two text runs.
func externalGuide(dish string, extra bool) string {
	doc := `<?xml version="1.0" encoding="UTF-8"?>
<!DOCTYPE guide [
  <!ELEMENT guide (restaurant*)>
  <!ATTLIST restaurant cuisine CDATA #IMPLIED>
  <!ENTITY note "a <quoted> '>' value">
  <!-- a comment in the subset -->
]>
<?render mode="full"?>
<guide>
  <restaurant cuisine="thai">
    <name>Baan</name>
    <menu>curry <![CDATA[<&]]> ` + dish + `</menu>
  </restaurant>`
	if extra {
		doc += `
  <!-- opened in March -->
  <restaurant cuisine="sushi"><name>Kaze</name></restaurant>`
	}
	return doc + "\n</guide>\n"
}

// TestExternalDocumentsThroughEngine loads external documents through
// core's PutXML/UpdateXML, and the oracle's reading of the same documents
// through Put/Update: every stored version equals the oracle's tree, and
// both engines store the same trees, identities included.
func TestExternalDocumentsThroughEngine(t *testing.T) {
	g := tdocgen.New(tdocgen.Config{
		Seed: 1, Docs: 2, InitialElems: 20, Versions: 6, OpsPerVersion: 3, Vocabulary: 500,
		Start: model.Date(2001, 1, 1),
	})
	type version struct {
		src string
		at  model.Time
	}
	var docs [][]version
	for d := 0; d < 2; d++ {
		var hist []version
		for v, hv := range g.History(d) {
			// cmd/tdocgen's stdout form.
			src := fmt.Sprintf("<!-- %s version %d at %s -->\n%s\n", g.URL(d), v+1, hv.At, hv.Tree.Pretty())
			hist = append(hist, version{src, hv.At})
		}
		docs = append(docs, hist)
	}
	day := model.Date(2001, 3, 1)
	docs = append(docs, []version{
		{externalGuide("rice", false), day},
		{externalGuide("noodles", true), day + 86_400_000},
	})

	viaReader, viaOracle := core.Open(core.Config{}), core.Open(core.Config{})
	for d, hist := range docs {
		url := fmt.Sprintf("http://example.org/doc%d.xml", d)
		var id, oid model.DocID
		var wants []*xmltree.Node
		for v, ver := range hist {
			want, err := xmltree.OracleParse(strings.NewReader(ver.src))
			if err != nil {
				t.Fatalf("oracle, doc %d v%d: %v", d, v+1, err)
			}
			wants = append(wants, want)
			if v == 0 {
				if id, err = viaReader.PutXML(url, strings.NewReader(ver.src), ver.at); err != nil {
					t.Fatalf("PutXML doc %d: %v", d, err)
				}
				if oid, err = viaOracle.Put(url, want.Clone(), ver.at); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if _, _, err := viaReader.UpdateXML(id, strings.NewReader(ver.src), ver.at); err != nil {
				t.Fatalf("UpdateXML doc %d v%d: %v", d, v+1, err)
			}
			if _, _, err := viaOracle.Update(oid, want.Clone(), ver.at); err != nil {
				t.Fatal(err)
			}
		}
		for v, want := range wants {
			got, err := viaReader.ReconstructVersion(id, model.VersionNo(v+1))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := viaOracle.ReconstructVersion(oid, model.VersionNo(v+1))
			if err != nil {
				t.Fatal(err)
			}
			if !xmltree.Equal(got.Root, want) {
				t.Errorf("doc %d v%d stored as\n%s\nthe oracle reads\n%s", d, v+1, got.Root.Pretty(), want.Pretty())
			}
			if !xmltree.SameTree(got.Root, ref.Root) {
				t.Errorf("doc %d v%d: the engines store different trees", d, v+1)
			}
		}
	}
}

// TestParseRetainsNoInput: no string of Parse's tree points into the
// input, so a kept tree (or a word the full-text index keys by a substring
// of its text) does not keep the whole document alive.
func TestParseRetainsNoInput(t *testing.T) {
	for _, src := range []string{
		externalGuide("rice", true),
		string(xmltree.Marshal(xmltree.MustParse(externalGuide("noodles", true)))),
	} {
		root, err := xmltree.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
		hi := lo + uintptr(len(src))
		inInput := func(s string) bool {
			p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
			return s != "" && lo <= p && p < hi
		}
		var walk func(n *xmltree.Node)
		walk = func(n *xmltree.Node) {
			if inInput(n.Name) || inInput(n.Value) {
				t.Errorf("node %q/%q points into the input", n.Name, n.Value)
			}
			for _, a := range n.Attrs {
				if inInput(a.Name) || inInput(a.Value) {
					t.Errorf("attribute %s=%q points into the input", a.Name, a.Value)
				}
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(root)
	}
}
