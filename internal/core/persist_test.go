package core

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"txmldb/internal/model"
	"txmldb/internal/tdocgen"
	"txmldb/internal/xmltree"
)

func TestDumpLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src := Open(Config{Clock: func() model.Time { return feb10 }})
	g := tdocgen.New(tdocgen.Config{Seed: 21, Docs: 3, Versions: 6, Start: jan1})
	ids, err := g.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	// Delete one document so the dump covers deletions too.
	if err := src.Delete(ids[2], feb10-1); err != nil {
		t.Fatal(err)
	}
	if err := src.Dump(dir); err != nil {
		t.Fatal(err)
	}

	dst := Open(Config{Clock: func() model.Time { return feb10 }})
	if err := dst.Load(dir); err != nil {
		t.Fatal(err)
	}

	for _, id := range ids {
		srcInfo, err := src.Info(id)
		if err != nil {
			t.Fatal(err)
		}
		dstID, ok := dst.LookupDoc(srcInfo.Name)
		if !ok {
			t.Fatalf("document %q missing after load", srcInfo.Name)
		}
		dstInfo, err := dst.Info(dstID)
		if err != nil {
			t.Fatal(err)
		}
		if dstInfo.Versions != srcInfo.Versions || dstInfo.Deleted != srcInfo.Deleted ||
			dstInfo.Created != srcInfo.Created {
			t.Fatalf("metadata mismatch for %q: %+v vs %+v", srcInfo.Name, dstInfo, srcInfo)
		}
		// Every reconstructed version must be structurally identical, with
		// identical stamps.
		for v := 1; v <= srcInfo.Versions; v++ {
			a, err := src.ReconstructVersion(id, model.VersionNo(v))
			if err != nil {
				t.Fatal(err)
			}
			b, err := dst.ReconstructVersion(dstID, model.VersionNo(v))
			if err != nil {
				t.Fatal(err)
			}
			if !xmltree.Equal(a.Root, b.Root) {
				t.Fatalf("doc %q version %d differs after reload", srcInfo.Name, v)
			}
			if a.Info.Stamp != b.Info.Stamp || a.Info.End != b.Info.End {
				t.Fatalf("doc %q version %d validity differs: %+v vs %+v",
					srcInfo.Name, v, a.Info, b.Info)
			}
		}
	}

	// The reloaded database answers temporal queries identically.
	q := `SELECT COUNT(R) FROM doc("http://guide000.example.com/restaurants.xml")[03/01/2001]/restaurant R`
	ra, err := src.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := dst.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Rows[0][0] != rb.Rows[0][0] {
		t.Fatalf("query differs after reload: %v vs %v", ra.Rows[0][0], rb.Rows[0][0])
	}
}

func TestDumpLoadReincarnation(t *testing.T) {
	dir := t.TempDir()
	src := Open(Config{Clock: func() model.Time { return feb10 }})
	id1, err := src.Put("doc", xmltree.MustParse(`<a><b>one</b></a>`), jan1)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Delete(id1, jan15); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Put("doc", xmltree.MustParse(`<a><b>two</b></a>`), jan31); err != nil {
		t.Fatal(err)
	}
	if err := src.Dump(dir); err != nil {
		t.Fatal(err)
	}
	dst := Open(Config{Clock: func() model.Time { return feb10 }})
	if err := dst.Load(dir); err != nil {
		t.Fatal(err)
	}
	if got := len(dst.Docs()); got != 2 {
		t.Fatalf("reincarnation: %d documents after load, want 2", got)
	}
	// The first incarnation's history is intact.
	vt, err := dst.ReconstructAtName(t, "doc", jan1)
	if err != nil {
		t.Fatal(err)
	}
	if vt.Text() != "one" {
		t.Fatalf("first incarnation = %q", vt.Text())
	}
	cur, ok := dst.LookupDoc("doc")
	if !ok {
		t.Fatal("current incarnation missing")
	}
	tree, _, err := dst.Current(cur)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Text() != "two" {
		t.Fatalf("current incarnation = %q", tree.Text())
	}
}

// ReconstructAtName finds the incarnation of name valid at the instant and
// reconstructs it; a test helper.
func (db *DB) ReconstructAtName(t *testing.T, name string, at model.Time) (*xmltree.Node, error) {
	t.Helper()
	for _, id := range db.Docs() {
		info, err := db.Info(id)
		if err != nil {
			return nil, err
		}
		if info.Name != name {
			continue
		}
		if vt, err := db.store.ReconstructAtContext(context.Background(), id, at); err == nil {
			return vt.Root, nil
		}
	}
	return nil, os.ErrNotExist
}

func TestLoadErrors(t *testing.T) {
	db := Open(Config{})
	if err := db.Load(t.TempDir()); err == nil {
		t.Fatal("missing manifest must fail")
	}
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "manifest.xml"), []byte(`<wrong/>`), 0o644)
	if err := db.Load(dir); err == nil {
		t.Fatal("wrong manifest root must fail")
	}
	dir2 := t.TempDir()
	os.WriteFile(filepath.Join(dir2, "manifest.xml"),
		[]byte(`<txmldump><document url="u"><version file="missing.xml" stampms="1"/></document></txmldump>`), 0o644)
	if err := db.Load(dir2); err == nil {
		t.Fatal("missing version file must fail")
	}
}

func TestDumpEmptyDatabase(t *testing.T) {
	dir := t.TempDir()
	db := Open(Config{})
	if err := db.Dump(dir); err != nil {
		t.Fatal(err)
	}
	dst := Open(Config{})
	if err := dst.Load(dir); err != nil {
		t.Fatal(err)
	}
	if len(dst.Docs()) != 0 {
		t.Fatalf("docs after empty round trip = %d", len(dst.Docs()))
	}
}

func TestLoadConflictsWithExistingData(t *testing.T) {
	dir := t.TempDir()
	src := Open(Config{Clock: func() model.Time { return feb10 }})
	if _, err := src.Put("doc", xmltree.MustParse(`<a>x</a>`), jan15); err != nil {
		t.Fatal(err)
	}
	if err := src.Dump(dir); err != nil {
		t.Fatal(err)
	}
	// The destination already holds a *newer* version of the same URL:
	// replaying the older dump version must fail loudly, not corrupt.
	dst := Open(Config{Clock: func() model.Time { return feb10 }})
	if _, err := dst.Put("doc", xmltree.MustParse(`<a>y</a>`), jan31); err != nil {
		t.Fatal(err)
	}
	if err := dst.Load(dir); err == nil {
		t.Fatal("loading older versions over newer data must fail")
	}
}
