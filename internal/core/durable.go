package core

import (
	"fmt"
	"os"
	"time"

	"txmldb/internal/checkpoint"
	"txmldb/internal/diff"
	"txmldb/internal/model"
	"txmldb/internal/pagestore"
	"txmldb/internal/store"
)

// OpenDurable opens (or creates) a database whose storage tier is a
// segmented write-ahead log under dir, with bounded-replay opens: when a
// published checkpoint image is present and valid, the pagestore state is
// loaded from it and only the WAL suffix behind the checkpoint position is
// replayed; the in-memory indexes are restored from the image's blobs and
// topped up incrementally from the versions committed after the horizon. A
// missing or corrupt checkpoint falls back — older image, then full replay
// from the first segment — and never fails the open. A legacy single-file
// "pages.wal" directory is adopted transparently.
//
// cfg.Store.Pages.Backend is overridden by the segmented WAL backend.
func OpenDurable(cfg Config, dir string) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: open durable: %w", err)
	}
	replayStart := time.Now()
	seg, info, err := checkpoint.OpenDir(dir, cfg.Checkpoint)
	if err != nil {
		return nil, fmt.Errorf("core: open durable: %w", err)
	}
	cfg.Store.Pages.Backend = seg
	attachTier(&cfg)
	st, err := store.Open(cfg.Store)
	if err != nil {
		seg.Close()
		return nil, fmt.Errorf("core: open durable: %w", err)
	}
	db := assemble(cfg, st)
	db.segwal = seg
	db.ckpt = checkpoint.New(dir, cfg.Checkpoint)
	db.ckptCfg = cfg.Checkpoint
	replayDur := time.Since(replayStart)

	// Index recovery: restore the image's index blobs and reindex only the
	// versions beyond the checkpoint horizon; any restore failure keeps the
	// fresh, empty index set and rebuilds it from the full history instead.
	indexStart := time.Now()
	var horizon map[model.DocID]horizonDoc
	restored := false
	if info.UsedCheckpoint && len(info.Aux) > 0 {
		if h, err := parseHorizon(info.Horizon); err != nil {
			info.Fallback = joinFallback(info.Fallback, err.Error())
		} else if ix, err := restore(cfg, info.Aux); err != nil {
			info.Fallback = joinFallback(info.Fallback, fmt.Sprintf("index restore: %v", err))
		} else {
			db.ix, horizon, restored = ix, h, true
		}
	}
	docs, versions, err := db.reindexFrom(horizon)
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("core: open durable: rebuild indexes: %w", err)
	}
	indexDur := time.Since(indexStart)

	ws := seg.Stats()
	db.openRep = OpenReport{
		UsedCheckpoint:  info.UsedCheckpoint,
		CheckpointFile:  info.CheckpointFile,
		Fallback:        info.Fallback,
		SegmentsScanned: ws.SegmentsScanned,
		ReplayedCommits: ws.ReplayedCommits,
		ReplayedExtents: ws.ReplayedExtents,
		ReplayedBytes:   ws.RecoveredBytes,
		TruncatedBytes:  ws.TruncatedOnOpen,
		IndexesRestored: restored,
		IndexedDocs:     docs,
		IndexedVersions: versions,
		ReplayDuration:  replayDur,
		IndexDuration:   indexDur,
	}
	if cfg.OpenLogf != nil {
		cfg.OpenLogf("%s", db.openRep.String())
	}
	return db, nil
}

func joinFallback(a, b string) string {
	if a == "" {
		return b
	}
	return a + "; " + b
}

// WALStats returns the write-ahead-log counters, or false when the
// database does not run on a WAL backend.
func (db *DB) WALStats() (pagestore.WALStats, bool) {
	if w, ok := db.store.Pages().Backend().(*pagestore.SegmentedWAL); ok {
		return w.Stats(), true
	}
	return pagestore.WALStats{}, false
}

// Fsck verifies every extent referenced by the delta indexes and reports
// structured corruption findings (see store.FsckReport). The verdict is
// fed into the resilience tier: corruption degrades the data component
// (sticky — only a later clean Fsck clears it), a clean walk heals it.
func (db *DB) Fsck() store.FsckReport {
	rep := db.store.Fsck()
	db.res.RecordFsck(rep.Clean())
	return rep
}

// Close releases the storage backend (fsynced WAL file handles). The
// database is unusable afterwards.
func (db *DB) Close() error { return db.store.Close() }

// reindexFrom feeds the version store through the index maintenance path,
// starting per document at the horizon (nil: everything — the full rebuild
// after recovery without a usable checkpoint). Versions made unreachable by
// storage corruption or pruned by retention are skipped — queries over them
// fail with the storage error, while intact versions stay indexed and
// queryable (graceful degradation; Fsck reports damage). Each document is
// one store walk, oldest first. Returns how many documents and versions
// were fed through maintenance.
func (db *DB) reindexFrom(horizon map[model.DocID]horizonDoc) (docs, count int, err error) {
	for _, id := range db.store.Docs() {
		info, err := db.store.Info(id)
		if err != nil {
			return docs, count, err
		}
		versions, err := db.store.Versions(id)
		if err != nil {
			return docs, count, err
		}
		from, deletionIndexed := 0, false
		if h, ok := horizon[id]; ok {
			from, deletionIndexed = h.Versions, h.Deleted
		}
		indexed := 0
		if from < len(versions) {
			err := db.store.Walk(id, model.Interval{Start: versions[from].Stamp, End: model.Forever}, nil, func(vt store.VersionTree, err error) error {
				if err != nil {
					return nil // unreachable or pruned version: skip, Fsck reports damage
				}
				v := vt.Info
				var script *diff.Script
				if v.Ver > 1 {
					// The delta leading into this version; absence (corrupt
					// chain) falls back to whole-version indexing, which the
					// version FTI handles and the delta FTI tolerates as nil.
					if s, err := db.store.ReadDelta(id, v.Ver-1); err == nil {
						script = s
					}
				}
				if err := db.ix.add(id, vt.Root, script, v.Stamp); err != nil {
					return fmt.Errorf("doc %d version %d: %w", id, v.Ver, err)
				}
				indexed++
				return nil
			})
			if err != nil {
				return docs, count, err
			}
		}
		if !info.Live() && info.Deleted != model.Forever && !deletionIndexed {
			if err := db.ix.del(id, info.Deleted); err != nil {
				return docs, count, fmt.Errorf("doc %d delete: %w", id, err)
			}
			indexed++
		}
		if indexed > 0 {
			docs++
			count += indexed
		}
	}
	return docs, count, nil
}
