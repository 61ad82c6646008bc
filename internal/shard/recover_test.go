package shard

import (
	"errors"
	"testing"
	"time"

	"txmldb/internal/core"
	"txmldb/internal/model"
	"txmldb/internal/pagestore"
	"txmldb/internal/resilience"
	"txmldb/internal/store"
)

// TestRouterQueriesRecoverHealedShard: router queries reach the shards
// below core.QueryContext, and a current-version query reads no extent,
// yet after a heal such queries alone bring the sick shard back to
// healthy: the executor's degraded-mode check probes the device.
func TestRouterQueriesRecoverHealedShard(t *testing.T) {
	now := time.Unix(0, 0)
	inj := pagestore.NewInjector(pagestore.NewMemory(), 1)
	r := Open(Config{Shards: 1, Engine: func(int) core.Config {
		return core.Config{
			Clock: func() model.Time { return model.Date(2001, 3, 1) },
			Store: store.Config{Pages: pagestore.Config{Backend: inj}, ReadRetries: -1},
			Resilience: resilience.Config{
				Enabled: true,
				Breaker: resilience.BreakerConfig{FailureThreshold: 3, OpenFor: time.Minute, ProbeSuccesses: 1, Clock: func() time.Time { return now }},
				Health:  resilience.HealthConfig{DegradeAfter: 3, FailAfter: 10, RecoverAfter: 2},
			},
		}
	}})
	defer r.Close()
	id, err := r.Put(testURL(0), testTree(0, 0), model.Date(2001, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 2; v++ {
		if _, _, err := r.Update(id, testTree(0, v), model.Date(2001, 1, 1+10*v)); err != nil {
			t.Fatal(err)
		}
	}
	current := `SELECT R FROM doc("` + testURL(0) + `")/restaurant R`
	old := `SELECT R FROM doc("` + testURL(0) + `")[05/01/2001]/restaurant R`

	inj.SetOutage(true)
	for i := 0; ; i++ {
		if _, err := r.Query(old); errors.Is(err, resilience.ErrCircuitOpen) {
			break
		} else if i == 10 {
			t.Fatalf("breaker never opened: last error %v", err)
		}
	}
	inj.SetOutage(false)
	now = now.Add(2 * time.Minute)
	if _, err := r.Query(current); err != nil {
		t.Fatalf("current-version query after the heal: %v", err)
	}
	if snap, _ := r.Health(); snap.State != resilience.Healthy {
		t.Fatalf("shard did not recover: %+v", snap)
	}
}
