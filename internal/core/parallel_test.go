package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"txmldb/internal/model"
	"txmldb/internal/pattern"
	"txmldb/internal/store"
	"txmldb/internal/xmltree"
)

// guideTree builds a deterministic guide document: doc seed d, version v.
func guideTree(d, v int) *xmltree.Node {
	g := xmltree.NewElement("guide")
	for r := 0; r < 3; r++ {
		g.AppendChild(xmltree.Elem("restaurant",
			xmltree.ElemText("name", fmt.Sprintf("place-%d-%d", d, r)),
			xmltree.ElemText("price", fmt.Sprint(10+v+r))))
	}
	return g
}

// parallelCorpusDB loads the same small multi-doc, multi-version corpus
// into a fresh DB with the given worker count.
func parallelCorpusDB(t *testing.T, workers int) (*DB, []model.DocID) {
	t.Helper()
	db := Open(Config{
		Workers: workers,
		Store:   store.Config{SnapshotEvery: 4},
		Clock:   func() model.Time { return 1_000_000 },
	})
	const docs, versions = 6, 9
	ids := make([]model.DocID, docs)
	for d := 0; d < docs; d++ {
		id, err := db.Put(fmt.Sprintf("http://doc%d.example.com/x.xml", d), guideTree(d, 1), model.Time(1000+d))
		if err != nil {
			t.Fatal(err)
		}
		ids[d] = id
		for v := 2; v <= versions; v++ {
			if _, _, err := db.Update(id, guideTree(d, v), model.Time(1000+d+v*100)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db, ids
}

func guidePattern() *pattern.PNode {
	r := &pattern.PNode{Name: "restaurant", Rel: pattern.Child, Project: true}
	return &pattern.PNode{Name: "guide", Rel: pattern.Child, Children: []*pattern.PNode{r}}
}

// TestParallelScanStress interleaves parallel TPatternScanAll readers and
// DocHistory walks with Update/Delete writers under -race. Every
// returned TEID must stay reconstructible (versions are append-only), and
// every history result must be a consistent snapshot: contiguous version
// numbers, adjacent validity intervals — no torn version lists. After the
// run the pool's accounting must balance.
func TestParallelScanStress(t *testing.T) {
	db, ids := parallelCorpusDB(t, 4)
	pat := guidePattern()

	stop := make(chan struct{})
	errs := make(chan error, 64)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	var wg sync.WaitGroup

	// Writer: keeps appending versions to half the corpus.
	wg.Add(1)
	go func() {
		defer wg.Done()
		stamp := model.Time(500_000)
		for v := 100; ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			id := ids[v%3]
			stamp += 10
			if _, _, err := db.Update(id, guideTree(int(id), v), stamp); err != nil {
				report(fmt.Errorf("update doc %d: %w", id, err))
				return
			}
		}
	}()

	// Writer: delete / re-put cycle on a sacrificial document.
	wg.Add(1)
	go func() {
		defer wg.Done()
		stamp := model.Time(600_000)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			stamp += 10
			if err := db.Delete(ids[5], stamp); err != nil {
				report(fmt.Errorf("delete: %w", err))
				return
			}
			stamp += 10
			id, err := db.Put("http://doc5.example.com/x.xml", guideTree(5, i), stamp)
			if err != nil {
				report(fmt.Errorf("re-put: %w", err))
				return
			}
			ids[5] = id
		}
	}()

	// Readers: parallel scans whose results must stay reconstructible.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				teids, err := db.TPatternScanAll(pat)
				if err != nil {
					report(fmt.Errorf("scan: %w", err))
					return
				}
				if _, err := db.ReconstructBatch(context.Background(), teids); err != nil {
					report(fmt.Errorf("reconstruct scanned teids: %w", err))
					return
				}
			}
		}()
	}

	// Readers: history walks checked for torn version lists.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := ids[r] // only stable (never-deleted) documents
				h, err := db.DocHistory(id, model.Always)
				if err != nil {
					report(fmt.Errorf("history doc %d: %w", id, err))
					return
				}
				for i := range h {
					if h[i].Root == nil {
						report(fmt.Errorf("doc %d history entry %d has nil tree", id, i))
						return
					}
					if i == 0 {
						continue
					}
					if h[i-1].Info.Ver != h[i].Info.Ver+1 {
						report(fmt.Errorf("doc %d torn history: v%d followed by v%d", id, h[i-1].Info.Ver, h[i].Info.Ver))
						return
					}
					if h[i].Info.End != h[i-1].Info.Stamp {
						report(fmt.Errorf("doc %d torn intervals: [%s,%s) then [%s,%s)", id,
							h[i].Info.Stamp, h[i].Info.End, h[i-1].Info.Stamp, h[i-1].Info.End))
						return
					}
				}
			}
		}(r)
	}

	time.Sleep(800 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := db.PoolStats()
	if st.Submitted != st.Completed+st.Cancelled+st.Panicked {
		t.Errorf("pool imbalance after stress: submitted=%d completed=%d cancelled=%d panicked=%d",
			st.Submitted, st.Completed, st.Cancelled, st.Panicked)
	}
	if st.Active != 0 || st.Queued != 0 {
		t.Errorf("idle pool reports active=%d queued=%d", st.Active, st.Queued)
	}
}
