package core

import (
	"fmt"

	"txmldb/internal/diff"
	"txmldb/internal/doctime"
	"txmldb/internal/fti"
	"txmldb/internal/model"
	"txmldb/internal/tidx"
	"txmldb/internal/xmltree"
)

// indexes is the set of temporal indexes kept beside the version store:
// the full-text index in the configured alternative of Section 7.2, the
// CreTime/DelTime index of Section 7.3.6 and, when DocTimePaths are
// configured, the document-time index of Section 3.1. Writers, the reindex
// after recovery, checkpoint capture and restore all maintain the indexes
// through it.
type indexes struct {
	fti      fti.Snapshotter
	times    *tidx.Index
	docTimes *doctime.Index // nil unless DocTimePaths configured
}

// Blob keys of the indexes inside a checkpoint image.
const (
	auxFTI     = "fti"
	auxTidx    = "tidx"
	auxDocTime = "doctime"
)

// newIndexes builds the empty index set cfg asks for.
func newIndexes(cfg Config) *indexes {
	ix := &indexes{times: tidx.New()}
	switch cfg.Index {
	case IndexDeltas:
		ix.fti = fti.NewDeltaIndex()
	case IndexBoth:
		ix.fti = fti.NewBothIndex()
	default:
		ix.fti = fti.NewVersionIndex()
	}
	if len(cfg.DocTimePaths) > 0 {
		ix.docTimes = doctime.New(doctime.Config{Paths: cfg.DocTimePaths})
	}
	return ix
}

// add maintains every index after version root of doc was stored at t;
// script is the completed delta that produced it, nil for a first version
// or when the delta is unreadable.
func (ix *indexes) add(doc model.DocID, root *xmltree.Node, script *diff.Script, t model.Time) error {
	if err := ix.fti.AddVersion(doc, root, script, t); err != nil {
		return err
	}
	ix.times.AddVersion(doc, root, script, t)
	if ix.docTimes != nil {
		ix.docTimes.AddVersion(doc, root)
	}
	return nil
}

// del closes the entries of a document deleted at t.
func (ix *indexes) del(doc model.DocID, t model.Time) error {
	if err := ix.fti.DeleteDoc(doc, t); err != nil {
		return err
	}
	ix.times.DeleteDoc(doc, t)
	return nil
}

// docTimeRange answers DB.DocTimeRange.
func (ix *indexes) docTimeRange(iv model.Interval) ([]doctime.Entry, error) {
	if ix.docTimes == nil {
		return nil, fmt.Errorf("core: document-time index not configured (set Config.DocTimePaths)")
	}
	return ix.docTimes.Range(iv), nil
}

// blob is one index's part of a checkpoint image.
type blob struct {
	key  string
	save func() ([]byte, error)
	load func([]byte) error
}

func (ix *indexes) blobs() []blob {
	bs := []blob{
		{auxFTI, ix.fti.SnapshotState, ix.fti.RestoreState},
		{auxTidx, ix.times.SnapshotState, ix.times.RestoreState},
	}
	if ix.docTimes != nil {
		bs = append(bs, blob{auxDocTime, ix.docTimes.SnapshotState, ix.docTimes.RestoreState})
	}
	return bs
}

// capture serializes every index into the blobs of a checkpoint image.
func (ix *indexes) capture() (map[string][]byte, error) {
	aux := make(map[string][]byte)
	for _, b := range ix.blobs() {
		data, err := b.save()
		if err != nil {
			return nil, fmt.Errorf("serialize %s index: %w", b.key, err)
		}
		aux[b.key] = data
	}
	return aux, nil
}

// restore builds the index set cfg asks for from the blobs of a checkpoint
// image, and returns it only when every blob restored. A blob missing for
// a configured index is an error: the image's horizon would lie about its
// coverage.
func restore(cfg Config, aux map[string][]byte) (*indexes, error) {
	ix := newIndexes(cfg)
	for _, b := range ix.blobs() {
		data, ok := aux[b.key]
		if !ok {
			return nil, fmt.Errorf("image has no %q blob", b.key)
		}
		if err := b.load(data); err != nil {
			return nil, fmt.Errorf("%s blob: %w", b.key, err)
		}
	}
	return ix, nil
}
