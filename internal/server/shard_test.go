package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"txmldb"
	"txmldb/internal/core"
	"txmldb/internal/model"
	"txmldb/internal/shard"
	"txmldb/internal/xmltree"
)

// shardedDB builds an in-memory router of the given number of shards
// holding a few documents.
func shardedDB(tb testing.TB, shards int) *shard.Router {
	tb.Helper()
	r := shard.Open(shard.Config{
		Shards: shards,
		Engine: func(int) core.Config {
			return core.Config{Clock: func() model.Time { return model.Date(2001, 2, 10) }}
		},
	})
	tb.Cleanup(func() { r.Close() })
	for i := 0; i < 9; i++ {
		g := xmltree.NewElement("guide")
		g.AppendChild(xmltree.Elem("restaurant",
			xmltree.ElemText("name", fmt.Sprintf("place-%d", i)),
			xmltree.ElemText("price", "10")))
		url := fmt.Sprintf("http://doc%d.example.com/x.xml", i)
		if _, err := r.Put(url, g, model.Date(2001, 1, 1)); err != nil {
			tb.Fatal(err)
		}
	}
	return r
}

// TestShardMetricsExposition: serving a sharded engine exposes the
// txserved_shard_* family with one shard="NN" series per shard, and the
// plain engine exposes none of it.
func TestShardMetricsExposition(t *testing.T) {
	s := New(shardedDB(t, 3), Config{SlowQuery: -1, ErrorLog: discardLogger()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Drive some traffic so ops counters move.
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/query?q=" + url.QueryEscape(fmt.Sprintf(
			`SELECT R FROM doc("http://doc%d.example.com/x.xml")[01/01/2001]/restaurant R`, i)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d", i, resp.StatusCode)
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
		"txserved_shards 3",
		`txserved_shard_docs{shard="00"}`,
		`txserved_shard_docs{shard="01"}`,
		`txserved_shard_docs{shard="02"}`,
		`txserved_shard_ops_total{shard="00"}`,
		`txserved_shard_active_ops{shard="01"}`,
		`txserved_shard_queue_depth{shard="02"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// One header per family, not per series.
	if got := strings.Count(out, "# TYPE txserved_shard_docs gauge"); got != 1 {
		t.Errorf("txserved_shard_docs TYPE header appears %d times, want 1", got)
	}
	// In-memory shards: no checkpoint/WAL series.
	if strings.Contains(out, "txserved_shard_checkpoint_total") {
		t.Error("non-durable shards exposed checkpoint series")
	}
	// Doc counts across the series must sum to the corpus.
	sum := 0
	for _, st := range shardStatsOf(t, s) {
		sum += st.Docs
	}
	if sum != 9 {
		t.Errorf("shard doc counts sum to %d, want 9", sum)
	}

	// A plain single engine exposes none of the family.
	_, ts2 := figure1Server(t, Config{SlowQuery: -1, ErrorLog: discardLogger()})
	resp2, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if strings.Contains(string(body2), "txserved_shard") {
		t.Error("unsharded engine exposed txserved_shard_* series")
	}
}

// TestShardPoolSpeedupScopes: the router's pool submits under the scope
// names the txserved_pool_speedup_milli_<scope> gauges carry, so a scan
// across two shards moves the _scan gauge off zero.
func TestShardPoolSpeedupScopes(t *testing.T) {
	s := New(shardedDB(t, 2), Config{SlowQuery: -1, ErrorLog: discardLogger()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/query?q=" + url.QueryEscape(
		`SELECT R FROM doc("http://doc0.example.com/x.xml")[EVERY]/restaurant R`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d", resp.StatusCode)
	}
	if got := s.engine.PoolStats().Scopes["scan"].Tasks; got != 2 {
		t.Errorf("router pool ran %d scan tasks, want one per shard", got)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, "txserved_pool_speedup_milli_scan "); ok {
			if v == "0" {
				t.Error("txserved_pool_speedup_milli_scan reads 0 after a scan across two shards")
			}
			return
		}
	}
	t.Error("/metrics has no txserved_pool_speedup_milli_scan gauge")
}

func shardStatsOf(t *testing.T, s *Server) []txmldb.ShardStats {
	t.Helper()
	ss, ok := s.engine.(shardStatser)
	if !ok {
		t.Fatal("sharded engine does not satisfy shardStatser")
	}
	return ss.ShardStats()
}

// readyStub is a controllable engine for the shard-aware readiness rules.
type readyStub struct {
	*txmldb.DB
	state txmldb.HealthState
}

func (e *readyStub) Health() (txmldb.HealthSnapshot, bool) {
	return txmldb.HealthSnapshot{State: e.state}, true
}
func (e *readyStub) RetryAfter() time.Duration { return time.Second }

// shardedStub adds the shardStatser surface.
type shardedStub struct{ readyStub }

func (e *shardedStub) Shards() int { return 2 }
func (e *shardedStub) ShardStats() []txmldb.ShardStats {
	return []txmldb.ShardStats{{Shard: 0}, {Shard: 1}}
}
func (e *shardedStub) ShardHealth() []txmldb.ShardHealth {
	return []txmldb.ShardHealth{
		{Shard: 0, Enabled: true, State: txmldb.StateHealthy},
		{Shard: 1, Enabled: true, State: e.state},
	}
}

// TestReadyzShardAware: a Degraded aggregate keeps a sharded engine ready
// (one sick shard must not drain the whole instance) while the same state
// takes an unsharded engine out of rotation; aggregate Failing takes both
// down. The sharded body lists per-shard states either way.
func TestReadyzShardAware(t *testing.T) {
	cases := []struct {
		name   string
		engine Engine
		status int
		ready  bool
		shards bool
	}{
		{"unsharded degraded", &readyStub{memEngine(), txmldb.StateDegraded}, http.StatusServiceUnavailable, false, false},
		{"sharded degraded", &shardedStub{readyStub{memEngine(), txmldb.StateDegraded}}, http.StatusOK, true, true},
		{"sharded failing", &shardedStub{readyStub{memEngine(), txmldb.StateFailing}}, http.StatusServiceUnavailable, false, true},
		{"sharded healthy", &shardedStub{readyStub{memEngine(), txmldb.StateHealthy}}, http.StatusOK, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(tc.engine, Config{SlowQuery: -1, ErrorLog: discardLogger()})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			resp, err := http.Get(ts.URL + "/readyz")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.status)
			}
			var body struct {
				Ready  bool `json:"ready"`
				Shards []struct {
					Shard int    `json:"shard"`
					State string `json:"state"`
				} `json:"shards"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
			if body.Ready != tc.ready {
				t.Fatalf("ready=%v, want %v", body.Ready, tc.ready)
			}
			if tc.shards && len(body.Shards) != 2 {
				t.Fatalf("shards list %v, want 2 entries", body.Shards)
			}
			if !tc.shards && body.Shards != nil {
				t.Fatalf("unsharded readyz carries a shards list: %v", body.Shards)
			}
		})
	}
}
