package stagedfree_test

import (
	"testing"

	"txmldb/internal/analysis"
	"txmldb/internal/analysis/analysistest"
	"txmldb/internal/analysis/stagedfree"
)

func TestStagedfree(t *testing.T) {
	// The fixture's path segment "store" is inside the analyzer gate:
	// every Batch.Free must reach the batch's Release on all non-panic
	// paths, including error returns.
	analysistest.Run(t, "testdata/src/store", stagedfree.Analyzer)
}

func TestNeuteredStagedfreeFailsFixture(t *testing.T) {
	neutered := *stagedfree.Analyzer
	neutered.Run = func(*analysis.Pass) error { return nil }
	rec := analysistest.RunRecorded(&neutered, "testdata/src/store")
	if rec.FatalMsg != "" {
		t.Fatalf("fixture load failed: %s", rec.FatalMsg)
	}
	if len(rec.Errors) == 0 {
		t.Fatal("neutered stagedfree passed its fixture; the fixture no longer guards the analyzer")
	}
}
