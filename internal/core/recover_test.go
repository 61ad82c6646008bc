package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"txmldb/internal/model"
	"txmldb/internal/pagestore"
	"txmldb/internal/resilience"
	"txmldb/internal/store"
	"txmldb/internal/xmltree"
)

// TestHealedBackendLeavesDegraded: with the cache off, current-version
// queries are served from memory and never read the device, yet after a
// heal the tier recovers — writes and queries probe the backend themselves
// — so a write after such queries succeeds, and so does a write with no
// query before it.
func TestHealedBackendLeavesDegraded(t *testing.T) {
	for _, queries := range []int{2, 0} {
		t.Run(fmt.Sprintf("queries=%d", queries), func(t *testing.T) {
			now := time.Unix(0, 0)
			inj := pagestore.NewInjector(pagestore.NewMemory(), 1)
			db, id := openFigure1(t, Config{
				Store: store.Config{
					Pages:       pagestore.Config{Backend: inj},
					ReadRetries: -1,
				},
				Resilience: resilience.Config{
					Enabled: true,
					Breaker: resilience.BreakerConfig{
						FailureThreshold: 3,
						OpenFor:          time.Minute,
						ProbeSuccesses:   1,
						Clock:            func() time.Time { return now },
					},
					Health: resilience.HealthConfig{DegradeAfter: 3, FailAfter: 10, RecoverAfter: 2},
				},
			})
			current := `SELECT R FROM doc("` + guideURL + `")/restaurant R`
			old := `SELECT R FROM doc("` + guideURL + `")[05/01/2001]/restaurant R`
			tree := xmltree.Elem("guide", xmltree.Elem("restaurant", xmltree.ElemText("name", "Napoli")))

			inj.SetOutage(true)
			for i := 0; ; i++ {
				if _, err := db.Query(old); errors.Is(err, resilience.ErrCircuitOpen) {
					break
				} else if i == 10 {
					t.Fatalf("breaker never opened: last error %v", err)
				}
			}
			if _, _, err := db.Update(id, tree, model.Date(2001, 2, 5)); !errors.Is(err, resilience.ErrDegraded) {
				t.Fatalf("write during the outage: err = %v, want ErrDegraded", err)
			}

			inj.SetOutage(false)
			now = now.Add(2 * time.Minute)
			for i := 0; i < queries; i++ {
				if _, err := db.Query(current); err != nil {
					t.Fatalf("current-version query after the heal: %v", err)
				}
			}
			if _, _, err := db.Update(id, tree, model.Date(2001, 2, 5)); err != nil {
				t.Fatalf("write after the heal: %v", err)
			}
			if snap, _ := db.Health(); snap.State != resilience.Healthy {
				t.Fatalf("tier did not recover: %+v", snap)
			}
		})
	}
}
