package core

import (
	"context"
	"strings"
	"testing"

	"txmldb/internal/model"
	"txmldb/internal/store"
)

// TestEpochPinnedQueryIgnoresLaterWrites drives a query pinned before an
// update through the full stack — scan clamp, pinned version selection,
// reconstruction — and checks it answers from the pinned snapshot while an
// unpinned query sees the newer state.
func TestEpochPinnedQueryIgnoresLaterWrites(t *testing.T) {
	db, id := openFigure1(t, Config{})
	pin := db.Epoch()
	ctx := store.WithEpoch(context.Background(), pin)

	// A fourth version published after the pin.
	if _, _, err := db.Update(id, guide([2]string{"Napoli", "25"}), model.Date(2001, 2, 5)); err != nil {
		t.Fatal(err)
	}

	const q = `SELECT R/price FROM doc("http://guide.com/restaurants.xml")[10/02/2001]/restaurant R WHERE R/name="Napoli"`
	res, err := db.QueryContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Doc().String()
	if !strings.Contains(s, "18") || strings.Contains(s, "25") {
		t.Fatalf("pinned query answered from the post-pin state: %s", s)
	}
	res, err = db.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Doc().String(); !strings.Contains(s, "25") {
		t.Fatalf("unpinned query missed the post-pin state: %s", s)
	}
}
