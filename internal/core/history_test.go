package core

import (
	"fmt"
	"testing"

	"txmldb/internal/store"
	"txmldb/internal/tdocgen"
	"txmldb/internal/vcache"
)

// TestEveryQueryWalksHistoryOnce holds the executor's [EVERY] expansion to
// the cost of the paper's DocHistory (Section 7.3.4): one reconstruction
// plus one inverted delta per version, whatever the worker count, the
// version cache or the snapshot spacing. Each cell runs on a fresh engine
// and must read at most one extent per version, count one reconstruction
// per version, and answer byte-identically to the sequential uncached
// cell.
func TestEveryQueryWalksHistoryOnce(t *testing.T) {
	const versions = 48
	g := tdocgen.New(tdocgen.Config{Seed: 7, Versions: versions, Start: jan1})
	q := fmt.Sprintf(`SELECT R FROM doc(%q)[EVERY]/restaurant R`, g.URL(0))
	var want string
	for _, workers := range []int{1, 2} {
		for _, cached := range []bool{false, true} {
			for _, every := range []int{0, 16} {
				name := fmt.Sprintf("workers=%d/cache=%v/snapshot-every=%d", workers, cached, every)
				cfg := Config{Workers: workers, Store: store.Config{SnapshotEvery: every}}
				if cached {
					cfg.Cache = vcache.Config{MaxBytes: 64 << 20}
				}
				db := Open(cfg)
				if _, err := g.Load(db); err != nil {
					t.Fatal(err)
				}
				before := db.IOStats()
				res, err := db.Query(q)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if reads := db.IOStats().Sub(before).ExtentRead; reads > versions {
					t.Errorf("%s: %d extent reads, want at most %d", name, reads, versions)
				}
				if res.Metrics.Reconstructions != versions {
					t.Errorf("%s: %d reconstructions, want %d", name, res.Metrics.Reconstructions, versions)
				}
				got := res.Doc().String()
				if want == "" {
					want = got
				} else if got != want {
					t.Errorf("%s: rows differ from workers=1, no cache, snapshot-every=0", name)
				}
			}
		}
	}
}

// TestRepeatedEveryQueryHitsCache: the history walk takes the version
// cache's resident versions, so a repeated [EVERY] query over a
// 48-version document reads no extent after the first run, and answers
// the same rows.
func TestRepeatedEveryQueryHitsCache(t *testing.T) {
	const versions = 48
	g := tdocgen.New(tdocgen.Config{Seed: 7, Versions: versions, Start: jan1})
	q := fmt.Sprintf(`SELECT R FROM doc(%q)[EVERY]/restaurant R`, g.URL(0))
	for _, workers := range []int{1, 2} {
		db := Open(Config{Workers: workers, Cache: vcache.Config{MaxBytes: 64 << 20}})
		if _, err := g.Load(db); err != nil {
			t.Fatal(err)
		}
		var first string
		for run := 1; run <= 3; run++ {
			before := db.IOStats()
			res, err := db.Query(q)
			if err != nil {
				t.Fatalf("workers=%d run %d: %v", workers, run, err)
			}
			reads := db.IOStats().Sub(before).ExtentRead
			got := res.Doc().String()
			if run == 1 {
				first = got
				continue
			}
			if reads != 0 {
				t.Errorf("workers=%d run %d: %d extent reads, want 0", workers, run, reads)
			}
			if got != first {
				t.Errorf("workers=%d run %d: rows differ from the first run", workers, run)
			}
		}
	}
}
