package oracle

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"txmldb/internal/checkpoint"
	"txmldb/internal/core"
	"txmldb/internal/model"
	"txmldb/internal/pagestore"
	"txmldb/internal/store"
	"txmldb/internal/xmltree"
)

// The crash sweeps cut durable state at strided byte offsets (every byte
// with ORACLE_EXHAUSTIVE=1) and require each cut to reopen to a
// whole-commit prefix of what the writers were told committed, with a
// clean Fsck.

func stride(def, short int) int {
	switch {
	case os.Getenv("ORACLE_EXHAUSTIVE") != "":
		return 1
	case testing.Short():
		return short
	}
	return def
}

func segments(t *testing.T, dir string) []string {
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	return segs
}

// logSize sums the sizes of the segmented log in dir.
func logSize(t *testing.T, dir string) int64 {
	var n int64
	for _, s := range segments(t, dir) {
		fi, err := os.Stat(s)
		if err != nil {
			t.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}

// copyFiles copies the regular files of src that keep(name) accepts into
// dst.
func copyFiles(t *testing.T, src, dst string, keep func(string) bool) {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	es, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range es {
		if e.IsDir() || !keep(e.Name()) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

func all(string) bool { return true }

// cutLog builds in dst what a crash leaves of src when the log's last
// durable byte is at cumulative offset cut: the other files whole, the
// segments up to the cut, the one holding it truncated.
func cutLog(t *testing.T, src, dst string, cut int64) {
	copyFiles(t, src, dst, func(n string) bool { return !strings.HasSuffix(n, ".seg") })
	for _, s := range segments(t, src) {
		data, err := os.ReadFile(s)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(data)) > cut {
			data = data[:cut]
		}
		if err := os.WriteFile(filepath.Join(dst, filepath.Base(s)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if cut -= int64(len(data)); cut <= 0 {
			return
		}
	}
}

// versions renders every version of every document name of r, as g
// stores it.
func (r *reference) versions(t *testing.T, g *target) map[string][]string {
	out := map[string][]string{}
	for s := 0; s < slots; s++ {
		url := r.gen.URL(s)
		id, ok := g.LookupDoc(url)
		if !ok {
			continue
		}
		vs, err := g.VersionsContext(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vs {
			vt, err := g.ReconstructVersionContext(context.Background(), id, v.Ver)
			if err != nil {
				t.Fatalf("%s v%d: %v", url, v.Ver, err)
			}
			out[url] = append(out[url], string(xmltree.Marshal(vt.Root)))
		}
	}
	return out
}

// reopen opens a crash state, checks Fsck, and returns what it recovered.
func (r *reference) reopen(t *testing.T, cfg core.Config, dir string) (map[string][]string, *core.DB) {
	t.Helper()
	db, err := core.OpenDurable(cfg, dir)
	if err != nil {
		t.Fatalf("%s: reopen: %v", filepath.Base(dir), err)
	}
	if rep := db.Fsck(); !rep.Clean() {
		t.Fatalf("%s: fsck after reopen:\n%s", filepath.Base(dir), rep)
	}
	return r.versions(t, single(db)), db
}

// TestCrashCheckpointLifecycle crashes inside the checkpoint protocol's
// three phases (image write, manifest publish, compaction's segment
// deletion with whole, torn and garbage leftovers) and in the log tail
// behind a published checkpoint. Every state must reopen to exactly the
// commit the surviving bytes cover.
func TestCrashCheckpointLifecycle(t *testing.T) {
	root := t.TempDir()
	cfg := core.Config{Clock: clock, Checkpoint: checkpoint.Config{SegmentBytes: 2048, Keep: 1}}
	ref := newReference(42, 1)
	work := filepath.Join(root, "work")
	db, err := core.OpenDurable(cfg, work)
	if err != nil {
		t.Fatal(err)
	}
	at := epoch0
	commit := func() {
		at += day
		st, _ := ref.plan(len(ref.log)%2, false, at)
		var err error
		if st.op == opPut {
			_, err = db.Put(ref.gen.URL(st.slot), ref.tree(st), at)
		} else {
			_, _, err = db.Update(ref.slot[st.slot].sut, ref.tree(st), at)
		}
		if err != nil {
			t.Fatal(err)
		}
		d, _ := ref.apply(st)
		d.sut, _ = db.LookupDoc(d.url)
	}
	for i := 0; i < 6; i++ {
		commit()
	}
	pre := ref.versions(t, ref.db)
	db.Close()
	preDir := filepath.Join(root, "pre")
	copyFiles(t, work, preDir, all)
	if db, err = core.OpenDurable(cfg, work); err != nil {
		t.Fatal(err)
	}
	stats, err := db.Checkpoint()
	if err != nil || stats.SegmentsDeleted == 0 {
		t.Fatalf("checkpoint deleted %d segments: %v", stats.SegmentsDeleted, err)
	}
	goldens := []golden{{logSize(t, work), len(ref.log)}}
	for i := 0; i < 4; i++ {
		commit()
		goldens = append(goldens, golden{logSize(t, work), len(ref.log)})
	}
	post := ref.versions(t, ref.db)
	db.Close()
	postDir := filepath.Join(root, "post")
	copyFiles(t, work, postDir, all)

	n := 0
	verify := func(dir string, want map[string][]string, write bool) {
		t.Helper()
		got, db := ref.reopen(t, cfg, dir)
		defer db.Close()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: recovered\n%v\nwant\n%v", filepath.Base(dir), got, want)
		}
		if write {
			if _, err := db.Put("post-crash.xml", ref.tree(step{}), at+day); err != nil {
				t.Fatalf("%s: write after reopen: %v", filepath.Base(dir), err)
			}
		}
		n++
		os.RemoveAll(dir)
	}
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join(postDir, name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	image, manifest := read(stats.File), read(checkpoint.ManifestName)
	by := stride(11, 29)
	sweep := func(size int, at func(cut int)) {
		for cut := 0; ; cut += by {
			at(min(cut, size))
			if cut >= size {
				return
			}
		}
	}

	// Image write: the pre-checkpoint log plus a torn image, no manifest.
	sweep(len(image), func(cut int) {
		s := filepath.Join(root, fmt.Sprintf("img-%d", cut))
		copyFiles(t, preDir, s, all)
		os.WriteFile(filepath.Join(s, stats.File), image[:cut], 0o644)
		verify(s, pre, cut == len(image))
	})
	// Manifest publish: the whole image and a torn manifest, before or
	// after the rename.
	for _, name := range []string{checkpoint.ManifestName + ".tmp", checkpoint.ManifestName} {
		sweep(len(manifest), func(cut int) {
			s := filepath.Join(root, fmt.Sprintf("man-%d", cut))
			copyFiles(t, preDir, s, all)
			os.WriteFile(filepath.Join(s, stats.File), image, 0o644)
			os.WriteFile(filepath.Join(s, name), manifest[:cut], 0o644)
			verify(s, pre, cut == 0 || cut == len(manifest))
		})
	}
	// Segment deletion: compaction crashed with k dead segments left
	// whole, torn or overwritten with garbage.
	var dead []string
	for _, seg := range segments(t, preDir) {
		if _, err := os.Stat(filepath.Join(postDir, filepath.Base(seg))); os.IsNotExist(err) {
			dead = append(dead, seg)
		}
	}
	if len(dead) == 0 {
		t.Fatal("compaction left no dead segments to resurrect")
	}
	for name, mangle := range map[string]func([]byte) []byte{
		"whole": func(d []byte) []byte { return d },
		"torn":  func(d []byte) []byte { return d[:len(d)/2] },
		"garbage": func(d []byte) []byte {
			g := append([]byte(nil), d...)
			for i := range g {
				g[i] ^= 0xa5
			}
			return g
		},
	} {
		for k := 1; k <= len(dead); k++ {
			s := filepath.Join(root, fmt.Sprintf("dead-%s-%d", name, k))
			copyFiles(t, postDir, s, all)
			for _, seg := range dead[:k] {
				data, _ := os.ReadFile(seg)
				os.WriteFile(filepath.Join(s, filepath.Base(seg)), mangle(data), 0o644)
			}
			os.WriteFile(filepath.Join(s, checkpoint.ManifestName+".tmp"), []byte("{torn"), 0o644)
			verify(s, post, true)
		}
	}
	// Tail truncation: the log behind the published checkpoint, cut
	// anywhere; the image and manifest survive.
	base, total := goldens[0].size, goldens[len(goldens)-1].size
	wants := map[int]map[string][]string{}
	sweep(int(total-base), func(off int) {
		cut := base + int64(off)
		want := goldens[0]
		for _, g := range goldens {
			if g.size <= cut {
				want = g
			}
		}
		if wants[want.steps] == nil {
			r, err := ref.rebuild(want.steps)
			if err != nil {
				t.Fatal(err)
			}
			wants[want.steps] = r.versions(t, r.db)
		}
		s := filepath.Join(root, fmt.Sprintf("tail-%d", cut))
		cutLog(t, postDir, s, cut)
		verify(s, wants[want.steps], cut == total)
	})
	t.Logf("%d crash states reopened and verified", n)
}

// TestCrashGroupCommitWaves runs waves of concurrent writers through the
// group-commit batcher, then cuts the log at strided offsets across the
// batches. Batches replay whole or not at all: every cut reopens to
// per-document version lists that are prefixes of the final ones,
// bracketed by the wave boundaries around the cut and never shorter than
// at an earlier cut.
func TestCrashGroupCommitWaves(t *testing.T) {
	const writers, waves = 4, 3
	root := t.TempDir()
	work := filepath.Join(root, "work")
	cfg := core.Config{Clock: clock, Store: store.Config{Pages: pagestore.Config{
		GroupWindow: 25 * time.Millisecond, GroupMaxBatch: writers}}}
	db, err := core.OpenDurable(cfg, work)
	if err != nil {
		t.Fatal(err)
	}
	ref := newReference(42, 1)
	type wave struct {
		size   int64
		counts map[string]int
	}
	var bounds []wave
	for w := 0; w < waves; w++ {
		at := epoch0 + model.Time(w+1)*day
		steps := make([]step, writers)
		var wg sync.WaitGroup
		errs := make([]error, writers)
		for i := range steps {
			steps[i], _ = ref.plan(i, false, at)
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				st := steps[i]
				if st.op == opPut {
					_, errs[i] = db.Put(ref.gen.URL(i), ref.tree(st), at)
				} else {
					_, _, errs[i] = db.Update(ref.slot[i].sut, ref.tree(st), at)
				}
			}(i)
		}
		wg.Wait()
		for i, st := range steps {
			if errs[i] != nil {
				t.Fatalf("wave %d writer %d: %v", w, i, errs[i])
			}
			d, _ := ref.apply(st)
			d.sut, _ = db.LookupDoc(d.url)
		}
		counts := map[string]int{}
		for url, vs := range ref.versions(t, ref.db) {
			counts[url] = len(vs)
		}
		bounds = append(bounds, wave{logSize(t, work), counts})
	}
	gs, ok := db.CommitBatchStats()
	if !ok || gs.MaxBatch < 2 {
		t.Fatalf("no multi-commit batch formed (%+v): nothing to cut inside", gs)
	}
	// When every wave shared one batch, the wave ends are the only commit
	// points, and a cut anywhere inside a wave recovers the wave before.
	exact := gs.Batches == waves && gs.MaxBatch == writers
	t.Logf("%d commits in %d batches, widest %d", gs.Commits, gs.Batches, gs.MaxBatch)
	db.Close()
	final := ref.versions(t, ref.db)

	prev := map[string]int{}
	total := bounds[len(bounds)-1].size
	for cut := int64(0); ; cut += int64(stride(7, 23)) {
		cut = min(cut, total)
		s := filepath.Join(root, fmt.Sprintf("cut-%d", cut))
		cutLog(t, work, s, cut)
		got, db := ref.reopen(t, cfg, s)
		lo, hi := map[string]int{}, bounds[len(bounds)-1].counts
		for _, b := range bounds {
			if b.size <= cut {
				lo = b.counts
			}
		}
		for i := len(bounds) - 1; i >= 0; i-- {
			if bounds[i].size >= cut {
				hi = bounds[i].counts
			}
		}
		for url := range final {
			vs := got[url]
			if n := len(vs); n < lo[url] || n > hi[url] || n < prev[url] || exact && n != lo[url] || !slices.Equal(vs, final[url][:n]) {
				t.Fatalf("cut %d: %s recovered %d versions (wave bounds %d..%d, earlier cut %d), or not a prefix of the committed ones",
					cut, url, n, lo[url], hi[url], prev[url])
			}
			prev[url] = len(vs)
		}
		if cut == total {
			if !reflect.DeepEqual(got, final) {
				t.Fatalf("the whole log did not recover the final state")
			}
			if _, err := db.Put("post-crash.xml", ref.tree(step{}), clock()-day); err != nil {
				t.Fatalf("write after reopen: %v", err)
			}
		}
		db.Close()
		os.RemoveAll(s)
		if cut == total {
			return
		}
	}
}
