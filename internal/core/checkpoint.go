package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"txmldb/internal/checkpoint"
	"txmldb/internal/model"
	"txmldb/internal/store"
)

// Checkpoint & compaction at the database level. DB.Checkpoint captures a
// consistent cut of the durable tier — pagestore extents, the document
// table, the in-memory indexes — under a short writer gate (db.wmu; reads
// are never blocked), then writes, publishes and compacts with no locks
// held. A database reopened from a checkpoint replays only the WAL suffix
// behind it and restores the indexes from the image instead of
// reconstructing every historical version.

var (
	// ErrNotDurable reports a checkpoint or compaction request against a
	// database not opened with OpenDurable (in-memory, or a backend
	// injected directly into Config.Store.Pages.Backend).
	ErrNotDurable = errors.New("core: checkpointing requires a durable database (OpenDurable)")
	// ErrCheckpointBusy reports a checkpoint request while another one is
	// still running.
	ErrCheckpointBusy = errors.New("core: checkpoint already in progress")
)

// CheckpointStats aggregates the database's checkpoint activity.
type CheckpointStats struct {
	Runs            int           // published checkpoints
	Errors          int           // failed attempts
	LastFile        string        // image file of the last published checkpoint
	LastBytes       int64         // its size
	LastDuration    time.Duration // wall time of the last run
	SegmentsDeleted int           // WAL segments reclaimed by compaction, cumulative
}

// horizonFile records, per document, how much history the index blobs of a
// checkpoint image already cover; the incremental reindex on reopen only
// feeds versions beyond it through index maintenance.
type horizonFile struct {
	Format int          `json:"format"`
	Docs   []horizonDoc `json:"docs"`
}

type horizonDoc struct {
	ID       int64 `json:"id"`
	Versions int   `json:"versions"`
	Deleted  bool  `json:"deleted"`
}

// Checkpoint writes, publishes and compacts a checkpoint now. Concurrent
// reads proceed throughout; writers are blocked only while the in-memory
// state is captured, never during file I/O. Returns ErrNotDurable on
// non-durable databases and ErrCheckpointBusy when a run is in flight.
func (db *DB) Checkpoint() (checkpoint.RunStats, error) {
	if db.ckpt == nil {
		return checkpoint.RunStats{}, ErrNotDurable
	}
	if !db.ckptBusy.CompareAndSwap(false, true) {
		return checkpoint.RunStats{}, ErrCheckpointBusy
	}
	defer db.ckptBusy.Store(false)
	db.wmu.Lock()
	snap, err := db.captureSnapshot()
	db.wmu.Unlock()
	if err != nil {
		db.noteCheckpointError()
		return checkpoint.RunStats{}, fmt.Errorf("core: checkpoint capture: %w", err)
	}
	stats, err := db.ckpt.Run(db.segwal, snap)
	if err != nil {
		db.noteCheckpointError()
		return stats, fmt.Errorf("core: checkpoint: %w", err)
	}
	db.store.NoteCheckpoint()
	db.ckptMu.Lock()
	db.ckptStats.Runs++
	db.ckptStats.LastFile = stats.File
	db.ckptStats.LastBytes = stats.Bytes
	db.ckptStats.LastDuration = stats.Duration
	db.ckptStats.SegmentsDeleted += stats.SegmentsDeleted
	db.ckptBytesMark = db.segwal.Stats().BytesAppended
	db.ckptMu.Unlock()
	return stats, nil
}

func (db *DB) noteCheckpointError() {
	db.ckptMu.Lock()
	db.ckptStats.Errors++
	db.ckptMu.Unlock()
}

// captureSnapshot assembles the checkpoint cut. Callers hold db.wmu
// exclusively, so no commit can move the log position while the extent
// table, document table, horizon and index images are read.
func (db *DB) captureSnapshot() (checkpoint.Snapshot, error) {
	state := db.segwal.StateSnapshot()
	meta, err := db.store.MarshalMeta()
	if err != nil {
		return checkpoint.Snapshot{}, err
	}
	horizon, err := db.marshalHorizon()
	if err != nil {
		return checkpoint.Snapshot{}, err
	}
	aux, err := db.ix.capture()
	if err != nil {
		return checkpoint.Snapshot{}, err
	}
	return checkpoint.Snapshot{
		Extents: state.Extents,
		Next:    state.Next,
		Pos:     state.Pos,
		Meta:    meta,
		Horizon: horizon,
		Aux:     aux,
	}, nil
}

// marshalHorizon records the per-document version counts the index blobs
// cover at capture time.
func (db *DB) marshalHorizon() ([]byte, error) {
	hf := horizonFile{Format: 1}
	for _, id := range db.store.Docs() {
		info, err := db.store.Info(id)
		if err != nil {
			return nil, err
		}
		hf.Docs = append(hf.Docs, horizonDoc{
			ID:       int64(id),
			Versions: info.Versions,
			Deleted:  !info.Live(),
		})
	}
	return json.Marshal(hf)
}

func parseHorizon(data []byte) (map[model.DocID]horizonDoc, error) {
	var hf horizonFile
	if err := json.Unmarshal(data, &hf); err != nil {
		return nil, fmt.Errorf("core: parsing checkpoint horizon: %w", err)
	}
	if hf.Format != 1 {
		return nil, fmt.Errorf("core: checkpoint horizon format %d, want 1", hf.Format)
	}
	out := make(map[model.DocID]horizonDoc, len(hf.Docs))
	for _, hd := range hf.Docs {
		out[model.DocID(hd.ID)] = hd
	}
	return out, nil
}

// maybeCheckpoint fires a checkpoint when a configured trigger — commits or
// appended bytes since the last one — is reached. Called by writers after
// releasing the writer gate; failures are counted in CheckpointStats and do
// not fail the triggering write (the WAL alone is durable).
func (db *DB) maybeCheckpoint() {
	if db.ckpt == nil {
		return
	}
	trigger := db.ckptCfg.EveryCommits > 0 &&
		db.store.CommitsSinceCheckpoint() >= db.ckptCfg.EveryCommits
	if !trigger && db.ckptCfg.EveryBytes > 0 {
		db.ckptMu.Lock()
		mark := db.ckptBytesMark
		db.ckptMu.Unlock()
		trigger = db.segwal.Stats().BytesAppended-mark >= db.ckptCfg.EveryBytes
	}
	if !trigger {
		return
	}
	_, _ = db.Checkpoint() // errors land in CheckpointStats.Errors
}

// CheckpointStats returns the checkpoint counters; ok is false on
// non-durable databases.
func (db *DB) CheckpointStats() (CheckpointStats, bool) {
	if db.ckpt == nil {
		return CheckpointStats{}, false
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	return db.ckptStats, true
}

// WALSegments reports how many log segments the durable tier currently
// keeps on disk (0 on non-durable databases).
func (db *DB) WALSegments() int64 {
	if db.segwal == nil {
		return 0
	}
	return db.segwal.Segments()
}

// Vacuum applies a retention policy to the version store (see
// store.Retention), drops the reconstruction cache, and — on durable
// databases — immediately checkpoints so compaction returns the reclaimed
// space to disk. The indexes are left untouched: pruned versions simply
// fail to materialize with store.ErrPruned.
func (db *DB) Vacuum(ret store.Retention) (store.VacuumReport, checkpoint.RunStats, error) {
	if err := db.checkWritable("vacuum"); err != nil {
		return store.VacuumReport{}, checkpoint.RunStats{}, err
	}
	db.wmu.Lock()
	rep, err := db.store.Vacuum(ret)
	db.wmu.Unlock()
	if err != nil {
		return rep, checkpoint.RunStats{}, err
	}
	if db.vcache != nil {
		for _, id := range db.store.Docs() {
			db.vcache.InvalidateDoc(id)
		}
	}
	if db.ckpt == nil {
		return rep, checkpoint.RunStats{}, nil
	}
	cs, err := db.Checkpoint()
	return rep, cs, err
}

// OpenReport describes how the last OpenDurable recovered the database; the
// C-series open-cost experiment and the CLIs' verbose open logging read it.
type OpenReport struct {
	UsedCheckpoint  bool   // state loaded from a checkpoint image
	CheckpointFile  string // which one
	Fallback        string // why a checkpoint was not (fully) used
	SegmentsScanned int64  // WAL segments replayed
	ReplayedCommits int64  // commits replayed from the WAL suffix
	ReplayedExtents int64  // extent records applied during replay
	ReplayedBytes   int64  // WAL bytes scanned during replay
	TruncatedBytes  int64  // torn tail discarded on open
	IndexesRestored bool   // index blobs restored from the image
	IndexedDocs     int    // documents fed through index maintenance
	IndexedVersions int    // versions fed through index maintenance
	ReplayDuration  time.Duration
	IndexDuration   time.Duration
}

// String renders the one-line open summary.
func (r OpenReport) String() string {
	src := "full replay"
	if r.UsedCheckpoint {
		src = fmt.Sprintf("checkpoint %s + wal suffix", r.CheckpointFile)
	}
	s := fmt.Sprintf("open: %s: %d segments, %d commits, %d extents, %d bytes replayed in %v; %d docs / %d versions indexed in %v",
		src, r.SegmentsScanned, r.ReplayedCommits, r.ReplayedExtents, r.ReplayedBytes,
		r.ReplayDuration.Round(time.Microsecond), r.IndexedDocs, r.IndexedVersions,
		r.IndexDuration.Round(time.Microsecond))
	if r.IndexesRestored {
		s += " (indexes restored from image)"
	}
	if r.TruncatedBytes > 0 {
		s += fmt.Sprintf("; %d torn bytes truncated", r.TruncatedBytes)
	}
	if r.Fallback != "" {
		s += fmt.Sprintf("; fallback: %s", r.Fallback)
	}
	return s
}

// OpenReport returns how the database was opened. Zero for databases not
// opened with OpenDurable.
func (db *DB) OpenReport() OpenReport { return db.openRep }
