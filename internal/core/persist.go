package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"txmldb/internal/model"
	"txmldb/internal/store"
	"txmldb/internal/xmltree"
)

// Dump writes the database's complete logical content — every version of
// every document, with persistent identity — into a directory: one XML
// file per document version plus a manifest. The dump is an interchange
// format, not the storage format: Load replays it through the normal
// update path, rebuilding deltas and indexes. Each document is one store
// walk; versions pruned by retention are no longer part of it.
func (db *DB) Dump(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: dump: %w", err)
	}
	manifest := xmltree.NewElement("txmldump")
	manifest.SetAttr("format", "1")
	for _, id := range db.Docs() {
		info, err := db.Info(id)
		if err != nil {
			return err
		}
		docEl := xmltree.NewElement("document")
		docEl.SetAttr("url", info.Name)
		if !info.Live() {
			docEl.SetAttr("deletedms", strconv.FormatInt(int64(info.Deleted), 10))
		}
		err = db.store.Walk(id, model.Always, nil, func(vt store.VersionTree, err error) error {
			v := vt.Info
			if err != nil {
				return fmt.Errorf("core: dump: doc %d version %d: %w", id, v.Ver, err)
			}
			file := fmt.Sprintf("doc%04d-v%04d.xml", id, v.Ver)
			if err := os.WriteFile(filepath.Join(dir, file), xmltree.Marshal(vt.Root), 0o644); err != nil {
				return fmt.Errorf("core: dump: %w", err)
			}
			vEl := xmltree.NewElement("version")
			vEl.SetAttr("file", file)
			vEl.SetAttr("stampms", strconv.FormatInt(int64(v.Stamp), 10))
			docEl.AppendChild(vEl)
			return nil
		})
		if err != nil {
			return err
		}
		manifest.AppendChild(docEl)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.xml"), []byte(manifest.Pretty()+"\n"), 0o644); err != nil {
		return fmt.Errorf("core: dump: %w", err)
	}
	return nil
}

// Load replays a Dump directory into the (typically empty) database:
// documents are re-put and re-updated in global timestamp order, so
// deltas, indexes and validity intervals are rebuilt exactly. Element
// identity is re-derived by the change detector; XIDs in the dump files
// are informational.
func (db *DB) Load(dir string) error {
	data, err := os.ReadFile(filepath.Join(dir, "manifest.xml"))
	if err != nil {
		return fmt.Errorf("core: load: %w", err)
	}
	manifest, err := xmltree.Unmarshal(data)
	if err != nil {
		return fmt.Errorf("core: load: manifest: %w", err)
	}
	if manifest.Name != "txmldump" {
		return fmt.Errorf("core: load: manifest root is <%s>, want <txmldump>", manifest.Name)
	}
	type event struct {
		at      model.Time
		url     string
		file    string // empty for a deletion event
		deleted bool
	}
	var events []event
	for _, docEl := range manifest.ChildElements("document") {
		url, ok := docEl.Attr("url")
		if !ok {
			return fmt.Errorf("core: load: document without url")
		}
		for _, vEl := range docEl.ChildElements("version") {
			file, _ := vEl.Attr("file")
			stampStr, _ := vEl.Attr("stampms")
			stamp, err := strconv.ParseInt(stampStr, 10, 64)
			if err != nil {
				return fmt.Errorf("core: load: bad stampms %q: %w", stampStr, err)
			}
			events = append(events, event{at: model.Time(stamp), url: url, file: file})
		}
		if delStr, ok := docEl.Attr("deletedms"); ok {
			del, err := strconv.ParseInt(delStr, 10, 64)
			if err != nil {
				return fmt.Errorf("core: load: bad deletedms %q: %w", delStr, err)
			}
			events = append(events, event{at: model.Time(del), url: url, deleted: true})
		}
	}
	// Replay in global transaction-time order; deletions after updates at
	// the same instant.
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return !events[i].deleted && events[j].deleted
	})
	for _, ev := range events {
		if ev.deleted {
			id, ok := db.LookupDoc(ev.url)
			if !ok {
				return fmt.Errorf("core: load: deletion of unknown document %q", ev.url)
			}
			if err := db.Delete(id, ev.at); err != nil {
				return fmt.Errorf("core: load: delete %q: %w", ev.url, err)
			}
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, ev.file))
		if err != nil {
			return fmt.Errorf("core: load: %w", err)
		}
		decoded, err := xmltree.Unmarshal(data)
		if err != nil {
			return fmt.Errorf("core: load: %s: %w", ev.file, err)
		}
		// The store keeps the tree as the current version; copy its
		// strings out of the dump file's bytes.
		tree := decoded.CloneOwned()
		// Identity is re-derived on load: strip dumped XIDs and stamps.
		tree.Walk(func(n *xmltree.Node) bool { n.XID = 0; n.Stamp = 0; return true })
		live := false
		id, known := db.LookupDoc(ev.url)
		if known {
			info, err := db.Info(id)
			if err != nil {
				return err
			}
			live = info.Live()
		}
		if live {
			if _, _, err := db.Update(id, tree, ev.at); err != nil {
				return fmt.Errorf("core: load: update %q at %s: %w", ev.url, ev.at, err)
			}
		} else {
			// First version, or a reincarnation after deletion.
			if _, err := db.Put(ev.url, tree, ev.at); err != nil {
				return fmt.Errorf("core: load: put %q: %w", ev.url, err)
			}
		}
	}
	return nil
}
