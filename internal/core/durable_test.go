package core

import (
	"os"
	"path/filepath"
	"sort"
	"testing"

	"txmldb/internal/model"
	"txmldb/internal/tdocgen"
)

// appendGarbage simulates a torn final write: random non-frame bytes after
// the last commit marker of the active log segment.
func appendGarbage(t *testing.T, dir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments in %s: %v", dir, err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x00, 0x17}); err != nil {
		t.Fatal(err)
	}
}

// durableFigure1 plays the Figure 1 history into a WAL-backed database in
// dir and closes it again.
func durableFigure1(t *testing.T, dir string) {
	t.Helper()
	cfg := Config{Clock: func() model.Time { return feb10 }}
	db, err := OpenDurable(cfg, dir)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	if err := tdocgen.LoadFigure1(db); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestOpenDurableRecoversQueries: after a reopen, the temporal operators
// and the query language see the full recovered history — the in-memory
// indexes (FTI, time index, document times) are rebuilt from storage.
func TestOpenDurableRecoversQueries(t *testing.T) {
	dir := t.TempDir()
	durableFigure1(t, dir)

	db, err := OpenDurable(Config{Clock: func() model.Time { return feb10 }}, dir)
	if err != nil {
		t.Fatalf("OpenDurable (reopen): %v", err)
	}
	defer db.Close()

	id, ok := db.LookupDoc(guideURL)
	if !ok {
		t.Fatalf("document lost across reopen")
	}
	vs, err := db.Versions(id)
	if err != nil || len(vs) != 3 {
		t.Fatalf("Versions = %v, %v; want 3 versions", vs, err)
	}

	// Q1 against the recovered snapshot index: restaurants as of Jan 26.
	res, err := db.Query(`SELECT R FROM doc("http://guide.com/restaurants.xml")[26/01/2001]/restaurant R`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("Q1 over recovered index: %d rows, want 2 (Napoli and Akropolis)", len(res.Rows))
	}

	// The pattern scan over all of time sees every version.
	teids, err := db.TPatternScanAll(restaurantPattern())
	if err != nil {
		t.Fatalf("TPatternScanAll: %v", err)
	}
	if len(teids) == 0 {
		t.Fatalf("recovered FTI is empty")
	}

	// CreTime/DelTime run off the rebuilt time index: Akropolis was created
	// on Jan 15 and removed on Jan 31.
	var akropolis model.EID
	for _, teid := range teids {
		n, err := db.Reconstruct(teid)
		if err != nil {
			t.Fatalf("Reconstruct(%v): %v", teid, err)
		}
		if name := n.ChildElements("name"); len(name) == 1 && name[0].Text() == "Akropolis" {
			akropolis = teid.E
		}
	}
	if akropolis == (model.EID{}) {
		t.Fatalf("Akropolis not found in recovered history")
	}
	if ct, err := db.CreTime(akropolis); err != nil || ct != jan15 {
		t.Fatalf("CreTime(Akropolis) = %v, %v; want jan15", ct, err)
	}
	if dt, err := db.DelTime(akropolis); err != nil || dt != jan31 {
		t.Fatalf("DelTime(Akropolis) = %v, %v; want jan31", dt, err)
	}

	// Recovery must leave storage verifiably intact.
	if rep := db.Fsck(); !rep.Clean() {
		t.Fatalf("fsck after recovery:\n%s", rep)
	}
	st, ok := db.WALStats()
	if !ok {
		t.Fatalf("WALStats: not running on a WAL?")
	}
	if st.RecoveredBytes == 0 || st.TruncatedOnOpen != 0 {
		t.Fatalf("reopen stats = %+v, want clean full recovery", st)
	}
}

// TestOpenDurableRecoversDeletedDocs: deletion state and DocHistory survive
// a reopen, and deleted documents stay out of current-state queries.
func TestOpenDurableRecoversDeletedDocs(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Clock: func() model.Time { return feb10 }}
	db, err := OpenDurable(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	id, err := db.Put(guideURL, guide([2]string{"Napoli", "15"}), jan1)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(id, jan31); err != nil {
		t.Fatal(err)
	}
	db.Close()

	r, err := OpenDurable(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	info, err := r.Info(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Live() || info.Deleted != jan31 {
		t.Fatalf("recovered info = %+v, want deleted at jan31", info)
	}
	hist, err := r.DocHistory(id, model.Always)
	if err != nil || len(hist) != 1 {
		t.Fatalf("DocHistory = %v, %v; want the single pre-deletion version", hist, err)
	}
	// Current-state pattern scan must not resurrect the deleted doc.
	matches, err := r.PatternScan(restaurantPattern())
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("deleted document visible in current scan: %v", matches)
	}
}

// TestWALStatsOnlyOnDurable: a volatile database reports no WAL.
func TestWALStatsOnlyOnDurable(t *testing.T) {
	db, _ := openFigure1(t, Config{})
	if _, ok := db.WALStats(); ok {
		t.Fatalf("in-memory database claims WAL stats")
	}
	if rep := db.Fsck(); !rep.Clean() {
		t.Fatalf("fsck of healthy in-memory db:\n%s", rep)
	}
}

// TestOpenDurableSurvivesTornTail: garbage appended past the last commit
// (a torn final write) is discarded on open; committed queries still work.
func TestOpenDurableSurvivesTornTail(t *testing.T) {
	dir := t.TempDir()
	durableFigure1(t, dir)
	appendGarbage(t, dir)

	db, err := OpenDurable(Config{Clock: func() model.Time { return feb10 }}, dir)
	if err != nil {
		t.Fatalf("OpenDurable over torn tail: %v", err)
	}
	defer db.Close()
	st, ok := db.WALStats()
	if !ok || st.TruncatedOnOpen == 0 {
		t.Fatalf("stats = %+v, want truncated garbage counted", st)
	}
	id, ok := db.LookupDoc(guideURL)
	if !ok {
		t.Fatalf("document lost")
	}
	for v := model.VersionNo(1); v <= 3; v++ {
		if _, err := db.ReconstructVersion(id, v); err != nil {
			t.Fatalf("v%d after torn-tail recovery: %v", v, err)
		}
	}
	if rep := db.Fsck(); !rep.Clean() {
		t.Fatalf("fsck after torn-tail recovery:\n%s", rep)
	}
}

// TestOpenDurableAdoptsLegacyPagesWAL: a data directory holding only a
// pre-segmentation pages.wal — testdata/legacy-pages.wal is the Figure 1
// history as the deleted single-file WAL wrote it, a full metadata snapshot
// per commit and no delta records — opens, serves its history, and takes new
// commits (delta records on top of the last legacy snapshot).
func TestOpenDurableAdoptsLegacyPagesWAL(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "legacy-pages.wal"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "pages.wal"), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Clock: func() model.Time { return feb10 }}
	db, err := OpenDurable(cfg, dir)
	if err != nil {
		t.Fatalf("OpenDurable over a legacy pages.wal: %v", err)
	}
	id, ok := db.LookupDoc(guideURL)
	if !ok {
		t.Fatalf("document lost in adoption")
	}
	if vs, err := db.Versions(id); err != nil || len(vs) != 3 {
		t.Fatalf("Versions = %v, %v; want 3 versions", vs, err)
	}
	res, err := db.Query(`SELECT R FROM doc("http://guide.com/restaurants.xml")[26/01/2001]/restaurant R`)
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("Q1 over the adopted log: %v, %v; want 2 rows", res, err)
	}
	if rep := db.Fsck(); !rep.Clean() {
		t.Fatalf("fsck after adoption:\n%s", rep)
	}
	if _, _, err := db.Update(id, guide([2]string{"Napoli", "20"}), feb10); err != nil {
		t.Fatalf("Update after adoption: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = OpenDurable(cfg, dir)
	if err != nil {
		t.Fatalf("OpenDurable (reopen): %v", err)
	}
	defer db.Close()
	if vs, err := db.Versions(id); err != nil || len(vs) != 4 {
		t.Fatalf("Versions after reopen = %v, %v; want 4 versions", vs, err)
	}
	if rep := db.Fsck(); !rep.Clean() {
		t.Fatalf("fsck after reopen:\n%s", rep)
	}
}
