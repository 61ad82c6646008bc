package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"txmldb/internal/core"
	"txmldb/internal/model"
	"txmldb/internal/pagestore"
	"txmldb/internal/store"
	"txmldb/internal/vcache"
	"txmldb/internal/xmltree"
)

// TestEngineMetricsExposed drives historical queries against a
// cache-enabled engine and checks /metrics exposes the buffer-pool and
// version-cache counters with live values.
func TestEngineMetricsExposed(t *testing.T) {
	db := core.Open(core.Config{
		Clock: func() model.Time { return model.Date(2001, 2, 10) },
		Cache: vcache.Config{MaxBytes: 8 << 20},
	})
	id, err := db.Put("http://guide.com/restaurants.xml",
		xmltree.Elem("guide", xmltree.Elem("restaurant",
			xmltree.ElemText("name", "Napoli"), xmltree.ElemText("price", "15"))),
		model.Date(2001, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i, price := range []string{"16", "17", "18"} {
		tree := xmltree.Elem("guide", xmltree.Elem("restaurant",
			xmltree.ElemText("name", "Napoli"), xmltree.ElemText("price", price)))
		if _, _, err := db.Update(id, tree, model.Date(2001, 1, 10+i)); err != nil {
			t.Fatal(err)
		}
	}

	s := New(db, Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// A historical snapshot query reconstructs an old version — twice, so
	// the second run hits the version cache.
	q := ts.URL + "/query?q=" + strings.ReplaceAll(
		`SELECT R FROM doc("http://guide.com/restaurants.xml")[05/01/2001]/restaurant R`, " ", "+")
	for i := 0; i < 2; i++ {
		resp, err := http.Get(q)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: %d: %s", i, resp.StatusCode, body)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(body)

	for _, want := range []string{
		"txserved_pagestore_cache_hits_total",
		"txserved_pagestore_cache_misses_total",
		"txserved_pagestore_cache_evictions_total",
		"txserved_pagestore_extent_reads_total",
		"txserved_vcache_lookups_total",
		"txserved_vcache_hits_total",
		"txserved_vcache_misses_total",
		"txserved_vcache_collapsed_flights_total",
		"txserved_vcache_evictions_total",
		"txserved_vcache_invalidations_total",
		"txserved_vcache_resident_bytes",
		"txserved_vcache_entries",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Both queries reconstructed version 1; the cache must show activity
	// and at least one exact hit.
	st, ok := db.CacheStats()
	if !ok {
		t.Fatal("cache not enabled")
	}
	if st.Lookups == 0 || st.Hits == 0 {
		t.Fatalf("queries bypassed the cache: %+v", st)
	}
	if strings.Contains(out, "txserved_vcache_lookups_total 0") {
		t.Error("/metrics reports zero vcache lookups after cached queries")
	}
}

// TestEngineMetricsAbsentWithoutCache: a cache-less engine must expose the
// buffer-pool counters but no vcache series.
func TestEngineMetricsAbsentWithoutCache(t *testing.T) {
	s := New(figure1DB(t), Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(body)
	if !strings.Contains(out, "txserved_pagestore_cache_hits_total") {
		t.Error("/metrics missing buffer-pool counters")
	}
	if strings.Contains(out, "txserved_vcache_") {
		t.Error("/metrics exposes vcache series for an engine without a cache")
	}
	// In-memory engines have no checkpoint subsystem either.
	if strings.Contains(out, "txserved_checkpoint_") || strings.Contains(out, "txserved_wal_segments") {
		t.Error("/metrics exposes checkpoint series for a non-durable engine")
	}
}

// TestCheckpointMetricsExposed: a durable engine exposes the checkpoint
// and WAL-segment series, and a published checkpoint shows up in them.
func TestCheckpointMetricsExposed(t *testing.T) {
	db, err := core.OpenDurable(core.Config{
		Clock: func() model.Time { return model.Date(2001, 2, 10) },
	}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.Put("http://guide.com/restaurants.xml",
		xmltree.Elem("guide", xmltree.Elem("restaurant",
			xmltree.ElemText("name", "Napoli"), xmltree.ElemText("price", "15"))),
		model.Date(2001, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	s := New(db, Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(body)
	for _, want := range []string{
		"txserved_checkpoint_total 1",
		"txserved_checkpoint_errors_total 0",
		"txserved_checkpoint_last_bytes",
		"txserved_checkpoint_last_ms",
		"txserved_checkpoint_segments_deleted_total",
		"txserved_wal_segments",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(out, "txserved_wal_segments 0") {
		t.Error("/metrics reports zero WAL segments on a durable engine")
	}
}

// TestGroupCommitMetricsExposed: an engine with a WAL group-commit window
// exposes the txserved_commit_batch_* series with live values, and an
// engine without batching exposes none of them.
func TestGroupCommitMetricsExposed(t *testing.T) {
	db, err := core.OpenDurable(core.Config{
		Store: store.Config{Pages: pagestore.Config{GroupWindow: time.Millisecond}},
		Clock: func() model.Time { return model.Date(2001, 2, 10) },
	}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.Put("http://guide.com/restaurants.xml",
		xmltree.Elem("guide", xmltree.Elem("restaurant",
			xmltree.ElemText("name", "Napoli"), xmltree.ElemText("price", "15"))),
		model.Date(2001, 1, 1)); err != nil {
		t.Fatal(err)
	}

	s := New(db, Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(body)
	for _, want := range []string{
		"txserved_commit_batch_commits_total",
		"txserved_commit_batch_batches_total",
		"txserved_commit_batch_failures_total 0",
		"txserved_commit_batch_max_batch",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(out, "txserved_commit_batch_commits_total 0") {
		t.Error("/metrics reports zero batched commits after a Put")
	}

	// No GroupWindow → the family stays out of the exposition.
	s2 := New(figure1DB(t), Config{})
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)
	resp2, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if strings.Contains(string(body2), "txserved_commit_batch_") {
		t.Error("/metrics exposes commit-batch series for an engine without batching")
	}
}
