package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"txmldb/internal/pagestore"
	"txmldb/internal/plan"
	"txmldb/internal/resilience"
	"txmldb/internal/store"
	"txmldb/internal/vcache"
)

// TestQueryAccountsDegradedServing: Query is QueryContext without a caller
// context, so while the circuit breaker is open a cache-hit Query counts
// one degraded serve and a cache-miss Query one degraded reject — exactly
// what QueryContext counts for the same query.
func TestQueryAccountsDegradedServing(t *testing.T) {
	inj := pagestore.NewInjector(pagestore.NewMemory(), 1)
	db, _ := openFigure1(t, Config{
		Store: store.Config{
			Pages:       pagestore.Config{Backend: inj},
			ReadRetries: -1,
		},
		Cache: vcache.Config{MaxBytes: 8 << 20},
		Resilience: resilience.Config{
			Enabled: true,
			Breaker: resilience.BreakerConfig{
				FailureThreshold: 3,
				OpenFor:          time.Minute,
				Clock:            func() time.Time { return time.Unix(0, 0) },
			},
			Health: resilience.HealthConfig{DegradeAfter: 3, FailAfter: 10, RecoverAfter: 2},
		},
	})
	at := func(date string) string {
		return `SELECT R FROM doc("` + guideURL + `")[` + date + `]/restaurant R`
	}
	hit, miss := at("26/01/2001"), at("05/01/2001")
	if _, err := db.Query(hit); err != nil { // caches version 2
		t.Fatal(err)
	}

	// Whole-device outage: reads of the uncached version 1 fail until the
	// breaker opens and fails them fast.
	inj.SetOutage(true)
	for i := 0; ; i++ {
		_, err := db.Query(miss)
		if errors.Is(err, resilience.ErrCircuitOpen) {
			break
		}
		if i == 10 {
			t.Fatalf("breaker never opened: last error %v", err)
		}
	}
	if !db.DegradedMode() {
		t.Fatal("tier not degraded with the breaker open")
	}

	counted := func(run func(string) (*plan.Result, error), src string) (serves, rejects int64) {
		before, _ := db.Health()
		run(src)
		after, _ := db.Health()
		return after.DegradedServes - before.DegradedServes, after.DegradedRejects - before.DegradedRejects
	}
	withCtx := func(src string) (*plan.Result, error) { return db.QueryContext(context.Background(), src) }
	for _, c := range []struct {
		name            string
		src             string
		serves, rejects int64
	}{
		{"cache hit", hit, 1, 0},
		{"cache miss", miss, 0, 1},
	} {
		if s, r := counted(withCtx, c.src); s != c.serves || r != c.rejects {
			t.Fatalf("%s: QueryContext counted %d serves, %d rejects; want %d, %d", c.name, s, r, c.serves, c.rejects)
		}
		if s, r := counted(db.Query, c.src); s != c.serves || r != c.rejects {
			t.Errorf("%s: Query counted %d serves, %d rejects; want %d, %d as QueryContext", c.name, s, r, c.serves, c.rejects)
		}
	}
}
