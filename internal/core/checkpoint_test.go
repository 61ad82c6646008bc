package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"txmldb/internal/checkpoint"
	"txmldb/internal/fti"
	"txmldb/internal/model"
	"txmldb/internal/store"
	"txmldb/internal/xmltree"
)

// dirBytes sums the sizes of all regular files under dir.
func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}

// growDoc appends n versions to a document named name, stamped from t0.
func growDoc(t *testing.T, db *DB, name string, n int, t0 model.Time) model.DocID {
	t.Helper()
	id, err := db.Put(name, guide([2]string{"Napoli", "v1"}), t0)
	if err != nil {
		t.Fatal(err)
	}
	for v := 2; v <= n; v++ {
		tree := guide([2]string{"Napoli", fmt.Sprintf("v%d", v)}, [2]string{fmt.Sprintf("extra%d", v), "1"})
		if _, _, err := db.Update(id, tree, t0+model.Time(v-1)); err != nil {
			t.Fatal(err)
		}
	}
	return id
}

// news is a feed whose items carry their document time in
// item/published.
func news(items ...[2]string) *xmltree.Node {
	n := xmltree.NewElement("news")
	for _, it := range items {
		n.AppendChild(xmltree.Elem("item",
			xmltree.ElemText("title", it[0]),
			xmltree.ElemText("published", it[1])))
	}
	return n
}

// TestCheckpointBoundedReplayOpen reopens from a checkpoint image, for
// every index kind with and without the document-time index, and checks
// that the restored indexes plus the replayed suffix answer exactly like a
// full replay of the same log without the image.
func TestCheckpointBoundedReplayOpen(t *testing.T) {
	for _, kind := range []IndexKind{IndexVersions, IndexDeltas, IndexBoth} {
		for _, paths := range [][]string{nil, {"item/published"}} {
			t.Run(fmt.Sprintf("%s/doctime=%v", kind, paths != nil), func(t *testing.T) {
				checkpointedOpen(t, Config{Clock: func() model.Time { return feb10 }, Index: kind, DocTimePaths: paths})
			})
		}
	}
}

func checkpointedOpen(t *testing.T, cfg Config) {
	dir := t.TempDir()
	db, err := OpenDurable(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	id := growDoc(t, db, guideURL, 6, jan1)
	feed, err := db.Put("news.xml", news([2]string{"Napoli opens", "2000-12-24"}), jan15)
	if err != nil {
		t.Fatal(err)
	}
	gone, err := db.Put("gone.xml", guide([2]string{"Roma", "30"}), jan15+1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Five commits after the checkpoint: only these replay on reopen. One
	// deletes a document the image holds open, one a document it never saw.
	if _, _, err := db.Update(id, guide([2]string{"Napoli", "after1"}), jan31); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Update(feed, news([2]string{"Akropolis closes", "2001-01-30"}), jan31); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(gone, jan31+1); err != nil {
		t.Fatal(err)
	}
	other, err := db.Put("other.xml", guide([2]string{"Milano", "22"}), jan31+1)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(other, feb10); err != nil {
		t.Fatal(err)
	}
	writer := indexAnswers(t, db, db)
	db.Close()

	// The same log without the image replays in full.
	full := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == checkpoint.ManifestName || filepath.Ext(e.Name()) == ".ckpt" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(full, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	r, err := OpenDurable(cfg, dir)
	if err != nil {
		t.Fatalf("reopen after checkpoint: %v", err)
	}
	rep := r.OpenReport()
	if !rep.UsedCheckpoint || !rep.IndexesRestored {
		t.Fatalf("open report: %+v, want checkpointed open with restored indexes", rep)
	}
	if rep.ReplayedCommits != 5 {
		t.Fatalf("replayed %d commits, want only the 5 after the checkpoint (report: %s)", rep.ReplayedCommits, rep)
	}
	f, err := OpenDurable(cfg, full)
	if err != nil {
		t.Fatalf("full-replay open: %v", err)
	}
	if rep := f.OpenReport(); rep.UsedCheckpoint {
		t.Fatalf("open without the image used a checkpoint: %s", rep)
	}
	sameAnswers(t, r, f)
	// The writer's live indexes are a reference the two reopens do not
	// share code with.
	diffAnswers(t, "the writer's live indexes", indexAnswers(t, r, f), writer)
	if got := r.FTI().Lookup("Milano"); len(got) != 0 {
		t.Fatalf("deleted doc visible in current lookup: %v", got)
	}
	// Post-horizon version content is queryable.
	res, err := r.Query(`SELECT R FROM doc("http://guide.com/restaurants.xml")[NOW]/restaurant R`)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("query after checkpointed open: %v rows, err %v", res, err)
	}
	if fsck := r.Fsck(); !fsck.Clean() {
		t.Fatalf("fsck: %s", fsck)
	}
	// All seven versions, pre- and post-horizon, reconstruct.
	for v := model.VersionNo(1); v <= 7; v++ {
		if _, err := r.ReconstructVersion(id, v); err != nil {
			t.Fatalf("version %d after checkpointed open: %v", v, err)
		}
	}
	r.Close()
	f.Close()
	if cfg.DocTimePaths != nil {
		return
	}

	// An image without a blob the configuration asks for fails restore:
	// the open keeps its empty index set and reindexes the whole history.
	cfg.DocTimePaths = []string{"item/published"}
	if r, err = OpenDurable(cfg, dir); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if rep := r.OpenReport(); !rep.UsedCheckpoint || rep.IndexesRestored || !strings.Contains(rep.Fallback, "index restore") {
		t.Fatalf("open report: %s, want a checkpointed open whose index restore fell back", rep)
	}
	if f, err = OpenDurable(cfg, full); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sameAnswers(t, r, f)
}

// sameAnswers fails when db's indexes answer differently from ref's over
// ref's history.
func sameAnswers(t *testing.T, db, ref *DB) {
	t.Helper()
	diffAnswers(t, "a full replay", indexAnswers(t, db, ref), indexAnswers(t, ref, ref))
}

// diffAnswers fails at the first line where got and want differ.
func diffAnswers(t *testing.T, ref, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	from := strings.LastIndexByte(want[:i], '\n') + 1
	t.Fatalf("indexes answer differently from %s at byte %d:\n got %s\nwant %s",
		ref, i, got[from:min(i+200, len(got))], want[from:min(i+200, len(want))])
}

// indexAnswers renders what db's indexes answer over the history held by
// ref: LookupH, Lookup and LookupT at every version boundary for every
// word, CreTime and DelTime for every element, and DocTimeRange.
func indexAnswers(t *testing.T, db, ref *DB) string {
	t.Helper()
	words := map[string]bool{}
	var eids []model.EID
	var times []model.Time
	for _, id := range ref.Docs() {
		vs, err := ref.Versions(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vs {
			times = append(times, v.Stamp-1, v.Stamp, v.End)
			vt, err := ref.ReconstructVersion(id, v.Ver)
			if err != nil {
				t.Fatal(err)
			}
			vt.Root.Walk(func(n *xmltree.Node) bool {
				if n.IsElement() {
					words[n.Name] = true
					eids = append(eids, model.EID{Doc: id, X: n.XID})
				}
				for _, w := range fti.Tokenize(n.Value) {
					words[w] = true
				}
				return true
			})
		}
	}
	var b strings.Builder
	postings := func(label string, ps []fti.Posting) {
		lines := make([]string, len(ps))
		for i, p := range ps {
			lines[i] = fmt.Sprintf("%+v", p)
		}
		sort.Strings(lines)
		fmt.Fprintf(&b, "%s %s\n", label, strings.Join(lines, " "))
	}
	sorted := make([]string, 0, len(words))
	for w := range words {
		sorted = append(sorted, w)
	}
	sort.Strings(sorted)
	for _, w := range sorted {
		postings(w+" H", db.FTI().LookupH(w))
		postings(w+" now", db.FTI().Lookup(w))
		for _, at := range times {
			postings(fmt.Sprintf("%s at %s", w, at), db.FTI().LookupT(w, at))
		}
	}
	for _, e := range eids {
		cre, cerr := db.CreTime(e)
		del, derr := db.DelTime(e)
		fmt.Fprintf(&b, "%s %s %v %s %v\n", e, cre, cerr, del, derr)
	}
	dt, err := db.DocTimeRange(model.Always)
	fmt.Fprintf(&b, "doctime %v %v\n", dt, err)
	return b.String()
}

func TestCheckpointAutoTrigger(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Clock: func() model.Time { return feb10 }}
	cfg.Checkpoint.EveryCommits = 3
	db, err := OpenDurable(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	growDoc(t, db, guideURL, 7, jan1)
	stats, ok := db.CheckpointStats()
	if !ok {
		t.Fatal("durable db reports no checkpoint stats")
	}
	if stats.Runs < 2 {
		t.Fatalf("7 commits with EveryCommits=3: %d checkpoints, want >= 2", stats.Runs)
	}
	if stats.Errors != 0 {
		t.Fatalf("checkpoint errors: %+v", stats)
	}
	if db.WALSegments() == 0 {
		t.Fatal("no WAL segments reported")
	}
}

func TestVacuumReclaimsDiskSpace(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Clock: func() model.Time { return feb10 }}
	cfg.Checkpoint.SegmentBytes = 4096
	cfg.Checkpoint.Keep = 1
	db, err := OpenDurable(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	id := growDoc(t, db, guideURL, 40, jan1)
	// Checkpoint + compact once so the baseline is the steady state, not an
	// uncompacted log.
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before := dirBytes(t, dir)
	rep, cs, err := db.Vacuum(store.Retention{Policy: store.KeepLast, KeepLast: 4, Granule: 2})
	if err != nil {
		t.Fatalf("Vacuum: %v", err)
	}
	if rep.VersionsPruned != 36 {
		t.Fatalf("pruned %d versions, want 36", rep.VersionsPruned)
	}
	if cs.File == "" {
		t.Fatalf("vacuum did not checkpoint: %+v", cs)
	}
	after := dirBytes(t, dir)
	if after >= before {
		t.Fatalf("vacuum did not shrink the directory: %d -> %d bytes", before, after)
	}
	db.Close()

	r, err := OpenDurable(cfg, dir)
	if err != nil {
		t.Fatalf("reopen after vacuum: %v", err)
	}
	defer r.Close()
	if _, err := r.ReconstructVersion(id, 2); !errors.Is(err, store.ErrPruned) {
		t.Fatalf("pruned version after reopen: %v", err)
	}
	for v := model.VersionNo(37); v <= 40; v++ {
		if _, err := r.ReconstructVersion(id, v); err != nil {
			t.Fatalf("survivor %d after reopen: %v", v, err)
		}
	}
	if fsck := r.Fsck(); !fsck.Clean() {
		t.Fatalf("fsck after vacuum+reopen: %s", fsck)
	}
}

func TestCheckpointRequiresDurable(t *testing.T) {
	db, _ := openFigure1(t, Config{})
	if _, err := db.Checkpoint(); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Checkpoint on in-memory db: %v", err)
	}
	if _, ok := db.CheckpointStats(); ok {
		t.Fatal("in-memory db claims checkpoint stats")
	}
	// Vacuum still works in memory — it just cannot compact.
	if _, _, err := db.Vacuum(store.Retention{Policy: store.KeepAll}); err != nil {
		t.Fatalf("in-memory vacuum: %v", err)
	}
}

func TestOpenReportFallbackOnCorruptImage(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Clock: func() model.Time { return feb10 }}
	db, err := OpenDurable(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	growDoc(t, db, guideURL, 4, jan1)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	// Destroy every image: the open must fall back to full replay.
	images, err := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
	if err != nil || len(images) == 0 {
		t.Fatalf("no checkpoint images: %v", err)
	}
	for _, img := range images {
		if err := os.Truncate(img, 10); err != nil {
			t.Fatal(err)
		}
	}
	var logged string
	cfg.OpenLogf = func(format string, args ...any) { logged = fmt.Sprintf(format, args...) }
	r, err := OpenDurable(cfg, dir)
	if err != nil {
		t.Fatalf("open over corrupt images: %v", err)
	}
	defer r.Close()
	rep := r.OpenReport()
	if rep.UsedCheckpoint || rep.Fallback == "" {
		t.Fatalf("open report: %+v, want full-replay fallback with a reason", rep)
	}
	if logged == "" {
		t.Fatal("OpenLogf not invoked")
	}
	id, _ := r.LookupDoc(guideURL)
	for v := model.VersionNo(1); v <= 4; v++ {
		if _, err := r.ReconstructVersion(id, v); err != nil {
			t.Fatalf("version %d after fallback open: %v", v, err)
		}
	}
}
