//go:build !race

package shard

import (
	"context"
	"testing"

	"txmldb/internal/model"
)

// TestRoutedPrimitivesAddNoAllocs requires the primitives the plan
// executor calls per row to allocate on the router exactly what the home
// shard's own call allocates: routing adds nothing per call. (The race
// detector moves the routing closures to the heap, hence the build tag.)
func TestRoutedPrimitivesAddNoAllocs(t *testing.T) {
	r := Open(Config{Shards: 2})
	defer r.Close()
	for i := 0; i < 4; i++ {
		id, err := r.Put(testURL(i), testTree(i, 1), model.Time(1000+i))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.Update(id, testTree(i, 2), model.Time(2000+i)); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	id := model.DocID(3)
	s, local, err := r.locate(id)
	if err != nil {
		t.Fatal(err)
	}
	db := r.shards[s]
	eid, leid := model.EID{Doc: id, X: 1}, model.EID{Doc: local, X: 1}
	for _, c := range []struct {
		name          string
		routed, shard func()
	}{
		{"ReconstructVersionContext", func() { r.ReconstructVersionContext(ctx, id, 1) }, func() { db.ReconstructVersionContext(ctx, local, 1) }},
		{"DocHistoryContext", func() { r.DocHistoryContext(ctx, id, model.Always) }, func() { db.DocHistoryContext(ctx, local, model.Always) }},
		{"VersionsContext", func() { r.VersionsContext(ctx, id) }, func() { db.VersionsContext(ctx, local) }},
		{"CreTime", func() { r.CreTime(eid) }, func() { db.CreTime(leid) }},
		{"DelTime", func() { r.DelTime(eid) }, func() { db.DelTime(leid) }},
	} {
		if got, want := testing.AllocsPerRun(100, c.routed), testing.AllocsPerRun(100, c.shard); got != want {
			t.Errorf("%s: %v allocations routed, %v on the shard", c.name, got, want)
		}
	}
}
