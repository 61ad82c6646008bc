package fti

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"

	"txmldb/internal/model"
)

// Checkpoint images. Each index flavour can serialize its full in-memory
// state into an opaque blob and restore it, so a checkpointed store reopens
// without reconstructing and re-indexing every historical version. The
// images are gob-encoded mirror structs: the live maps hold unexported keys
// and pointer values, so they are flattened into exported, value-typed
// shapes first.

// Snapshotter is an Index that serializes its state into a checkpoint
// image and restores it; all three alternatives are Snapshotters.
type Snapshotter interface {
	Index
	SnapshotState() ([]byte, error)
	RestoreState([]byte) error
}

// versionOpenImage mirrors one open posting of a document: an element's
// openSlot with the element's XID.
type versionOpenImage struct {
	X       model.XID
	Src     Source
	Word    string
	Idx     int
	Count   int
	PathSig uint64
}

// versionIndexImage is the serialized form of a VersionIndex.
type versionIndexImage struct {
	Words map[string][]Posting
	Open  map[model.DocID][]versionOpenImage
	Live  map[string][]int
}

// SnapshotState serializes the index for a checkpoint image.
func (ix *VersionIndex) SnapshotState() ([]byte, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	img := versionIndexImage{
		Words: ix.words,
		Open:  make(map[model.DocID][]versionOpenImage, len(ix.open)),
		Live:  ix.liveByWord,
	}
	for doc, d := range ix.open {
		var entries []versionOpenImage
		for x, slots := range d.elems {
			for _, s := range slots {
				entries = append(entries, versionOpenImage{
					X: x, Src: s.src, Word: s.word,
					Idx: s.idx, Count: s.count, PathSig: s.pathSig,
				})
			}
		}
		img.Open[doc] = entries
	}
	return gobEncode(img)
}

// RestoreState replaces the index contents with a snapshot taken by
// SnapshotState.
func (ix *VersionIndex) RestoreState(data []byte) error {
	var img versionIndexImage
	if err := gobDecode(data, &img); err != nil {
		return fmt.Errorf("fti: restore version index: %w", err)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.words = img.Words
	if ix.words == nil {
		ix.words = make(map[string][]Posting)
	}
	ix.liveByWord = img.Live
	if ix.liveByWord == nil {
		ix.liveByWord = make(map[string][]int)
	}
	// The image does not record which version each document's postings
	// describe, so every restored document starts unsynced: its next
	// version is indexed whole.
	ix.open = make(map[model.DocID]*docOpen, len(img.Open))
	for doc, entries := range img.Open {
		d := &docOpen{elems: make(map[model.XID][]openSlot)}
		for _, e := range entries {
			d.elems[e.X] = append(d.elems[e.X], openSlot{
				src: e.Src, word: e.Word, idx: e.Idx, count: e.Count, pathSig: e.PathSig,
			})
		}
		for _, slots := range d.elems {
			sort.Slice(slots, func(i, j int) bool {
				return compareOcc(slots[i].src, slots[i].word, slots[j].src, slots[j].word) < 0
			})
		}
		ix.open[doc] = d
	}
	return nil
}

// deltaLiveImage mirrors one (occKey, liveEntry) pair of a document.
type deltaLiveImage struct {
	X     model.XID
	Src   Source
	Word  string
	Count int
	Path  []model.XID
}

// deltaIndexImage is the serialized form of a DeltaIndex.
type deltaIndexImage struct {
	Words map[string][]Event
	Live  map[model.DocID][]deltaLiveImage
	Ops   map[string][]OpEvent
}

// SnapshotState serializes the index for a checkpoint image.
func (ix *DeltaIndex) SnapshotState() ([]byte, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	img := deltaIndexImage{
		Words: ix.words,
		Live:  make(map[model.DocID][]deltaLiveImage, len(ix.live)),
		Ops:   ix.opEvents,
	}
	for doc, docLive := range ix.live {
		entries := make([]deltaLiveImage, 0, len(docLive))
		for key, ent := range docLive {
			entries = append(entries, deltaLiveImage{
				X: key.x, Src: key.src, Word: key.word,
				Count: ent.count, Path: ent.path,
			})
		}
		img.Live[doc] = entries
	}
	return gobEncode(img)
}

// RestoreState replaces the index contents with a snapshot taken by
// SnapshotState.
func (ix *DeltaIndex) RestoreState(data []byte) error {
	var img deltaIndexImage
	if err := gobDecode(data, &img); err != nil {
		return fmt.Errorf("fti: restore delta index: %w", err)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.words = img.Words
	if ix.words == nil {
		ix.words = make(map[string][]Event)
	}
	ix.opEvents = img.Ops
	if ix.opEvents == nil {
		ix.opEvents = make(map[string][]OpEvent)
	}
	ix.live = make(map[model.DocID]map[occKey]*liveEntry, len(img.Live))
	for doc, entries := range img.Live {
		docLive := make(map[occKey]*liveEntry, len(entries))
		for _, e := range entries {
			docLive[occKey{x: e.X, src: e.Src, word: e.Word}] = &liveEntry{
				count: e.Count, path: e.Path,
			}
		}
		ix.live[doc] = docLive
	}
	return nil
}

// bothIndexImage is the serialized form of a BothIndex: the two sides'
// images, nested.
type bothIndexImage struct {
	Version []byte
	Delta   []byte
}

// SnapshotState serializes both sides for a checkpoint image.
func (ix *BothIndex) SnapshotState() ([]byte, error) {
	v, err := ix.Version.SnapshotState()
	if err != nil {
		return nil, err
	}
	d, err := ix.Delta.SnapshotState()
	if err != nil {
		return nil, err
	}
	return gobEncode(bothIndexImage{Version: v, Delta: d})
}

// RestoreState replaces both sides with a snapshot taken by SnapshotState.
func (ix *BothIndex) RestoreState(data []byte) error {
	var img bothIndexImage
	if err := gobDecode(data, &img); err != nil {
		return fmt.Errorf("fti: restore both index: %w", err)
	}
	if err := ix.Version.RestoreState(img.Version); err != nil {
		return err
	}
	return ix.Delta.RestoreState(img.Delta)
}

func gobEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobDecode(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}
