// Command txmldb is an interactive shell and one-shot query runner for the
// temporal XML database.
//
// Usage:
//
//	txmldb -demo -q 'SELECT R FROM doc("http://guide.com/restaurants.xml")[26/01/2001]/restaurant R'
//	txmldb -demo                     # REPL over the paper's Figure 1 data
//	txmldb -gen docs=4,versions=8    # REPL over a generated corpus
//	txmldb -load url=FILE@dd/mm/yyyy # load version files (repeatable)
//	txmldb -datadir DIR ...          # durable: store in a WAL under DIR
//	txmldb fsck -datadir DIR         # verify a durable database's storage
//	txmldb compact -datadir DIR -keep-last 4   # prune old versions, compact
//
// With -datadir the database lives in a segmented write-ahead log under
// the given directory and survives restarts; without it everything is in
// memory. Durable databases checkpoint periodically (-checkpoint-every)
// so reopening replays only the log suffix behind the newest checkpoint.
// The fsck subcommand replays the log and verifies every stored extent,
// reporting damaged extents (with their log-segment provenance) and the
// versions they make unreachable; it exits non-zero if corruption is
// found. The compact subcommand applies a version retention policy
// (-keep-last K or -keep-since dd/mm/yyyy), checkpoints and drops the log
// segments the checkpoint covers, and prints the reclaimed disk space.
// Both subcommands recognize a sharded root (written by txserved -shards
// N, marked by its shards.json manifest) and iterate every shard-NN/
// subdirectory, reporting per-shard provenance in one summary table.
//
// In the REPL, each line is one query; ".docs" lists documents, ".health"
// prints the resilience tier's state (see -resilience), ".quit" exits.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"txmldb"
	"txmldb/internal/model"
	"txmldb/internal/tdocgen"
)

// loadFlags collects repeatable -load url=FILE@date arguments.
type loadFlags []string

func (l *loadFlags) String() string     { return strings.Join(*l, ",") }
func (l *loadFlags) Set(v string) error { *l = append(*l, v); return nil }

func main() {
	if len(os.Args) > 1 && os.Args[1] == "fsck" {
		os.Exit(runFsck(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "compact" {
		os.Exit(runCompact(os.Args[2:]))
	}

	var loads loadFlags
	demo := flag.Bool("demo", false, "load the paper's Figure 1 restaurant history")
	gen := flag.String("gen", "", "load a generated corpus, e.g. docs=4,versions=8,elems=10,seed=1")
	q := flag.String("q", "", "run one query and exit")
	dump := flag.String("dump", "", "after loading, dump the database to this directory and exit")
	loadDir := flag.String("loaddir", "", "load a database dump directory before anything else")
	dataDir := flag.String("datadir", "", "durable mode: keep the database in a write-ahead log under this directory")
	cacheBytes := flag.Int64("cache-bytes", 64<<20, "byte budget of the shared version-reconstruction cache (0 disables)")
	workers := flag.Int("workers", 0, "worker-pool size for parallel operators (0 = GOMAXPROCS, 1 = sequential)")
	resil := flag.Bool("resilience", true, "enable the health state machine and circuit breaker (\".health\" shows the state)")
	ckptEvery := flag.Int("checkpoint-every", 0, "durable mode: checkpoint after this many commits (0 = manual only)")
	flag.Var(&loads, "load", "load a document version: url=FILE@dd/mm/yyyy (repeatable)")
	flag.Parse()

	db, err := openDB(*dataDir, *demo, *cacheBytes, *workers, *resil, *ckptEvery)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	switch {
	case *demo:
		if err := loadDemo(db); err != nil {
			log.Fatal(err)
		}
	case *gen != "":
		cfg, err := parseGen(*gen)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := tdocgen.New(cfg).Load(db); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "loaded %d generated documents\n", cfg.Docs)
	}
	if *loadDir != "" {
		if err := db.Load(*loadDir); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "loaded dump from %s\n", *loadDir)
	}
	for _, spec := range loads {
		if err := loadFile(db, spec); err != nil {
			log.Fatal(err)
		}
	}
	if *dump != "" {
		if err := db.Dump(*dump); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "dumped database to %s\n", *dump)
		return
	}

	if *q != "" {
		if err := runQuery(db, *q); err != nil {
			printQueryError(os.Stderr, *q, err)
			os.Exit(1)
		}
		return
	}
	repl(db)
}

// openDB opens the database: in memory, or durably under dataDir. The demo
// pins the clock to the paper's "today" (February 10, 2001) so NOW-relative
// queries match the text.
func openDB(dataDir string, demo bool, cacheBytes int64, workers int, resil bool, ckptEvery int) (*txmldb.DB, error) {
	cfg := txmldb.Config{
		Cache:      txmldb.CacheConfig{MaxBytes: cacheBytes},
		Workers:    workers,
		Resilience: txmldb.ResilienceConfig{Enabled: resil},
	}
	if demo {
		cfg.Clock = func() txmldb.Time { return txmldb.Date(2001, time.February, 10) }
	}
	if dataDir == "" {
		return txmldb.Open(cfg), nil
	}
	cfg.Checkpoint.EveryCommits = ckptEvery
	cfg.OpenLogf = log.Printf
	return txmldb.OpenDurable(cfg, dataDir)
}

// loadDemo plays the Figure 1 history into db, skipping documents already
// present (a durable demo directory being reopened).
func loadDemo(db *txmldb.DB) error {
	if _, ok := db.LookupDoc(tdocgen.Figure1URL); ok {
		fmt.Fprintln(os.Stderr, "demo data already present")
		return nil
	}
	return tdocgen.LoadFigure1(db)
}

// runFsck implements the fsck subcommand: replay the write-ahead log under
// -datadir, verify every referenced extent and report the damage. A
// sharded root (shards.json manifest) is verified shard by shard, with a
// per-shard provenance table and one aggregate verdict. Exit status 0
// means clean, 1 corrupt, 2 unusable.
func runFsck(args []string) int {
	fs := flag.NewFlagSet("fsck", flag.ExitOnError)
	dataDir := fs.String("datadir", "", "data directory of the durable database to verify")
	verbose := fs.Bool("v", false, "also print write-ahead-log recovery statistics")
	fs.Parse(args)
	if *dataDir == "" {
		fmt.Fprintln(os.Stderr, "fsck: -datadir is required")
		return 2
	}
	if n, dirs, sharded, err := txmldb.ShardLayout(*dataDir); err != nil {
		fmt.Fprintf(os.Stderr, "fsck: %v\n", err)
		return 2
	} else if sharded {
		return fsckShards(n, dirs, *verbose)
	}
	db, err := txmldb.OpenDurable(txmldb.Config{}, *dataDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsck: %v\n", err)
		return 2
	}
	defer db.Close()
	if *verbose {
		fmt.Println(db.OpenReport().String())
		if st, ok := db.WALStats(); ok {
			fmt.Printf("wal: %d bytes of committed log replayed, %d bytes of torn tail truncated\n",
				st.RecoveredBytes, st.TruncatedOnOpen)
		}
	}
	rep := db.Fsck()
	fmt.Println(rep.String())
	if !rep.Clean() {
		return 1
	}
	return 0
}

// fsckShards verifies every shard of a sharded root independently and
// prints one summary table: each shard's document/version/extent counts
// and problems, then the aggregate verdict. A shard that fails to open is
// reported in its row and makes the run exit 2; any corruption exits 1.
func fsckShards(n int, dirs []string, verbose bool) int {
	fmt.Printf("fsck: sharded database, %d shards\n", n)
	fmt.Printf("  %-10s %6s %9s %8s %9s\n", "shard", "docs", "versions", "extents", "problems")
	status := 0
	var docs, versions, extents, problems int
	for i, dir := range dirs {
		db, err := txmldb.OpenDurable(txmldb.Config{}, dir)
		if err != nil {
			fmt.Printf("  %-10s open failed: %v\n", txmldb.ShardDirName(i), err)
			status = 2
			continue
		}
		if verbose {
			fmt.Printf("  %-10s %s\n", txmldb.ShardDirName(i), db.OpenReport().String())
		}
		rep := db.Fsck()
		db.Close()
		fmt.Printf("  %-10s %6d %9d %8d %9d\n",
			txmldb.ShardDirName(i), rep.Docs, rep.Versions, rep.Extents, len(rep.Problems))
		for _, p := range rep.Problems {
			fmt.Printf("             %s\n", p.String())
		}
		docs += rep.Docs
		versions += rep.Versions
		extents += rep.Extents
		problems += len(rep.Problems)
		if len(rep.Problems) > 0 && status == 0 {
			status = 1
		}
	}
	fmt.Printf("  %-10s %6d %9d %8d %9d\n", "total", docs, versions, extents, problems)
	if problems == 0 && status == 0 {
		fmt.Println("fsck: clean")
	}
	return status
}

// runCompact implements the compact subcommand: open the durable database
// under -datadir, apply the requested retention policy, checkpoint, drop
// covered log segments and report the reclaimed space. Exit status 0 on
// success, 2 on bad usage or failure.
func runCompact(args []string) int {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	dataDir := fs.String("datadir", "", "data directory of the durable database to compact")
	keepLast := fs.Int("keep-last", 0, "keep only the newest K versions of each document")
	keepSince := fs.String("keep-since", "", "keep versions alive at or after dd/mm/yyyy")
	granule := fs.Int("granule", 0, "snapshot-interspersal granule among survivors (0 = store default)")
	fs.Parse(args)
	if *dataDir == "" {
		fmt.Fprintln(os.Stderr, "compact: -datadir is required")
		return 2
	}
	ret := txmldb.Retention{Policy: txmldb.KeepAll, Granule: *granule}
	switch {
	case *keepLast > 0 && *keepSince != "":
		fmt.Fprintln(os.Stderr, "compact: -keep-last and -keep-since are mutually exclusive")
		return 2
	case *keepLast > 0:
		ret.Policy, ret.KeepLast = txmldb.KeepLast, *keepLast
	case *keepSince != "":
		std, err := time.Parse("02/01/2006", *keepSince)
		if err != nil {
			fmt.Fprintf(os.Stderr, "compact: bad -keep-since date %q: %v\n", *keepSince, err)
			return 2
		}
		ret.Policy, ret.KeepSince = txmldb.KeepSince, txmldb.TimeOf(std)
	}
	if n, dirs, sharded, err := txmldb.ShardLayout(*dataDir); err != nil {
		fmt.Fprintf(os.Stderr, "compact: %v\n", err)
		return 2
	} else if sharded {
		return compactShards(n, dirs, ret)
	}
	before, err := dirBytes(*dataDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compact: %v\n", err)
		return 2
	}
	db, err := txmldb.OpenDurable(txmldb.Config{OpenLogf: log.Printf}, *dataDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compact: %v\n", err)
		return 2
	}
	rep, cs, err := db.Vacuum(ret)
	if err != nil {
		db.Close()
		fmt.Fprintf(os.Stderr, "compact: %v\n", err)
		return 2
	}
	if err := db.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "compact: close: %v\n", err)
		return 2
	}
	after, err := dirBytes(*dataDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compact: %v\n", err)
		return 2
	}
	fmt.Printf("retention %s: %s\n", ret.Policy, rep)
	fmt.Printf("checkpoint %s (%d bytes), %d log segments dropped\n", cs.File, cs.Bytes, cs.SegmentsDeleted)
	fmt.Printf("directory: %d -> %d bytes (%+d)\n", before, after, after-before)
	return 0
}

// compactShards applies the retention policy to every shard of a sharded
// root independently and prints one summary table with per-shard
// provenance: versions pruned, extents and bytes freed, log segments
// dropped and the on-disk delta per shard directory. A failing shard is
// reported in its row; the others still compact. Exit 0 when every shard
// compacted, 2 otherwise.
func compactShards(n int, dirs []string, ret txmldb.Retention) int {
	fmt.Printf("compact: sharded database, %d shards, retention %s\n", n, ret.Policy)
	fmt.Printf("  %-10s %6s %8s %9s %12s %9s %14s\n",
		"shard", "docs", "pruned", "extents", "bytes-freed", "seg-drop", "dir-delta")
	status := 0
	var docs, pruned, extents, segs int
	var bytesFreed, delta int64
	for i, dir := range dirs {
		before, err := dirBytes(dir)
		if err != nil {
			fmt.Printf("  %-10s %v\n", txmldb.ShardDirName(i), err)
			status = 2
			continue
		}
		db, err := txmldb.OpenDurable(txmldb.Config{}, dir)
		if err != nil {
			fmt.Printf("  %-10s open failed: %v\n", txmldb.ShardDirName(i), err)
			status = 2
			continue
		}
		rep, cs, err := db.Vacuum(ret)
		if cerr := db.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Printf("  %-10s %v\n", txmldb.ShardDirName(i), err)
			status = 2
			continue
		}
		after, err := dirBytes(dir)
		if err != nil {
			fmt.Printf("  %-10s %v\n", txmldb.ShardDirName(i), err)
			status = 2
			continue
		}
		fmt.Printf("  %-10s %6d %8d %9d %12d %9d %+14d\n",
			txmldb.ShardDirName(i), rep.Docs, rep.VersionsPruned, rep.ExtentsFreed,
			rep.BytesFreed, cs.SegmentsDeleted, after-before)
		docs += rep.Docs
		pruned += rep.VersionsPruned
		extents += rep.ExtentsFreed
		bytesFreed += rep.BytesFreed
		segs += cs.SegmentsDeleted
		delta += after - before
	}
	fmt.Printf("  %-10s %6d %8d %9d %12d %9d %+14d\n",
		"total", docs, pruned, extents, bytesFreed, segs, delta)
	return status
}

// dirBytes sums the sizes of the regular files directly under dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}

func parseGen(spec string) (tdocgen.Config, error) {
	cfg := tdocgen.Config{Seed: 1, Docs: 2, Versions: 5, Start: model.Date(2001, 1, 1)}
	for _, kv := range strings.Split(spec, ",") {
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 {
			return cfg, fmt.Errorf("bad -gen entry %q (want key=value)", kv)
		}
		n, err := strconv.Atoi(parts[1])
		if err != nil {
			return cfg, fmt.Errorf("bad -gen value %q: %w", kv, err)
		}
		switch parts[0] {
		case "docs":
			cfg.Docs = n
		case "versions":
			cfg.Versions = n
		case "elems":
			cfg.InitialElems = n
		case "ops":
			cfg.OpsPerVersion = n
		case "seed":
			cfg.Seed = int64(n)
		default:
			return cfg, fmt.Errorf("unknown -gen key %q", parts[0])
		}
	}
	return cfg, nil
}

// loadFile handles url=FILE@dd/mm/yyyy: puts a new document or updates an
// existing one at the given transaction time.
func loadFile(db *txmldb.DB, spec string) error {
	eq := strings.Index(spec, "=")
	at := strings.LastIndex(spec, "@")
	if eq < 0 || at < eq {
		return fmt.Errorf("bad -load %q (want url=FILE@dd/mm/yyyy)", spec)
	}
	url, file, date := spec[:eq], spec[eq+1:at], spec[at+1:]
	std, err := time.Parse("02/01/2006", date)
	if err != nil {
		return fmt.Errorf("bad -load date %q: %w", date, err)
	}
	f, err := os.Open(file)
	if err != nil {
		return err
	}
	defer f.Close()
	stamp := txmldb.TimeOf(std)
	if id, ok := db.LookupDoc(url); ok {
		_, _, err = db.UpdateXML(id, f, stamp)
	} else {
		_, err = db.PutXML(url, f, stamp)
	}
	if err != nil {
		return fmt.Errorf("loading %s: %w", file, err)
	}
	fmt.Fprintf(os.Stderr, "loaded %s as %s @ %s\n", file, url, date)
	return nil
}

// printQueryError renders a query failure; syntax errors point at the
// offending spot in the query text with a caret.
func printQueryError(w io.Writer, src string, err error) {
	var pe *txmldb.ParseError
	if !errors.As(err, &pe) {
		fmt.Fprintln(w, "error:", err)
		return
	}
	fmt.Fprintf(w, "error: %v\n", pe)
	lines := strings.Split(src, "\n")
	if pe.Line >= 1 && pe.Line <= len(lines) && pe.Col >= 1 {
		line := lines[pe.Line-1]
		fmt.Fprintf(w, "  %s\n", line)
		col := pe.Col
		if col > len(line)+1 {
			col = len(line) + 1
		}
		fmt.Fprintf(w, "  %s^\n", strings.Repeat(" ", col-1))
	}
}

func runQuery(db *txmldb.DB, src string) error {
	res, err := db.Query(src)
	if err != nil {
		return err
	}
	fmt.Println(res.Doc().Pretty())
	fmt.Fprintf(os.Stderr, "%d rows; %d pattern matches, %d reconstructions\n",
		len(res.Rows), res.Metrics.PatternMatches, res.Metrics.Reconstructions)
	return nil
}

func repl(db *txmldb.DB) {
	fmt.Fprintln(os.Stderr, `txmldb shell — one query per line; ".docs" lists documents, ".explain <query>" shows the plan, ".health" shows the resilience tier, ".quit" exits`)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Fprint(os.Stderr, "txmldb> ")
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == ".quit" || line == ".exit":
			return
		case strings.HasPrefix(line, ".explain "):
			src := strings.TrimPrefix(line, ".explain ")
			out, err := db.Explain(src)
			if err != nil {
				printQueryError(os.Stderr, src, err)
				continue
			}
			fmt.Print(out)
		case line == ".health":
			snap, ok := db.Health()
			if !ok {
				fmt.Fprintln(os.Stderr, "resilience tier disabled (run with -resilience)")
				continue
			}
			fmt.Printf("  state    %s (backend %s, data %s)\n",
				snap.State, snap.Backend.State, snap.Data.State)
			fmt.Printf("  breaker  %s (%d opens, %d fast-fails, %d probes)\n",
				snap.Breaker.State, snap.Breaker.Opens, snap.Breaker.FastFails, snap.Breaker.Probes)
			fmt.Printf("  degraded %d reads served, %d operations rejected\n",
				snap.DegradedServes, snap.DegradedRejects)
		case line == ".docs":
			for _, id := range db.Docs() {
				info, err := db.Info(id)
				if err != nil {
					continue
				}
				state := "live"
				if !info.Live() {
					state = "deleted " + info.Deleted.String()
				}
				fmt.Printf("  %3d  %-50s %2d versions, created %s, %s\n",
					info.ID, info.Name, info.Versions, info.Created, state)
			}
		default:
			if err := runQuery(db, line); err != nil {
				printQueryError(os.Stderr, line, err)
			}
		}
	}
}
