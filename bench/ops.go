package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"txmldb/internal/model"
	"txmldb/internal/pattern"
	"txmldb/internal/tdocgen"
)

// sizes fixes every input size of the benchmark. The full sizes were probed
// on the 2-core sandbox so that three set-ups, the timed phase and the
// correctness gate of one run end within about 25 s (see CALIBRATION.md).
type sizes struct {
	// Read corpus R: Docs documents of Versions versions each.
	Docs, Versions, Elems, OpsPerVersion, Vocabulary int
	SnapshotEvery                                    int
	CacheBytes                                       int64 // vcache budget per engine
	BufferPages                                      int   // pagestore buffer pool
	HotDocs, HotVersions                             int   // hot set: newest HotVersions of the first HotDocs

	// ingest-durable.
	IngestDocs, IngestElems, CheckpointEvery int

	// served-mixed.
	Shards, WriteRate int

	// OpsPerSecond is the nominal rate that sizes each workload's op list
	// (rate x seconds ops); a faster engine cycles through the list again.
	// The ingest stream cannot be cycled and is generated twice as long.
	OpsPerSecond map[string]int

	SetupRepeats int
}

var fullSizes = sizes{
	Docs: 24, Versions: 64, Elems: 40, OpsPerVersion: 3, Vocabulary: 2000,
	SnapshotEvery: 32, CacheBytes: 8 << 20, BufferPages: 256,
	HotDocs: 16, HotVersions: 4,
	IngestDocs: 64, IngestElems: 120, CheckpointEvery: 128,
	Shards: 2, WriteRate: 50,
	OpsPerSecond: map[string]int{
		snapshotCold: 270, snapshotHot: 600, indexOnly: 400, ingestDurable: 200, servedMixed: 160,
	},
	SetupRepeats: 3,
}

// smokeSizes is about a twentieth of the full corpus; its numbers are not
// comparable with anything.
var smokeSizes = sizes{
	Docs: 6, Versions: 16, Elems: 40, OpsPerVersion: 3, Vocabulary: 2000,
	SnapshotEvery: 8, CacheBytes: 1 << 20, BufferPages: 64,
	HotDocs: 3, HotVersions: 2,
	IngestDocs: 4, IngestElems: 40, CheckpointEvery: 32,
	Shards: 2, WriteRate: 50,
	OpsPerSecond: fullSizes.OpsPerSecond,
	SetupRepeats: 1,
}

const (
	snapshotCold  = "snapshot-cold"
	snapshotHot   = "snapshot-hot"
	indexOnly     = "index-only"
	ingestDurable = "ingest-durable"
	servedMixed   = "served-mixed"
)

var workloadNames = []string{snapshotCold, snapshotHot, indexOnly, ingestDurable, servedMixed}

var corpusStart = model.Date(2001, 1, 1)

const dayMs = 24 * 3600 * 1000

// readCorpus is the generator of corpus R for a seed.
func (sz sizes) readCorpus(seed int64, extraVersions int) *tdocgen.Generator {
	return tdocgen.New(tdocgen.Config{
		Seed: seed, Docs: sz.Docs, InitialElems: sz.Elems, Versions: sz.Versions + extraVersions,
		OpsPerVersion: sz.OpsPerVersion, Vocabulary: sz.Vocabulary, Start: corpusStart,
	})
}

// stampOf is the transaction time of version index v (0-based) of any
// document: one version a day.
func stampOf(v int) model.Time { return corpusStart + model.Time(int64(v)*dayMs) }

// dateLit renders a version stamp as the query language's dd/mm/yyyy.
func dateLit(t model.Time) string { return t.Std().Format("02/01/2006") }

type opKind uint8

const (
	opSelect    opKind = iota // Q1: SELECT R at a snapshot, result serialized
	opAggregate               // Q2: COUNT/SUM at a snapshot
	opHistory                 // TPatternScanAll with a word predicate
	opNavigate                // TPatternScan + CreTime/PreviousTS/CurrentTS
	opWrite                   // PutXML/UpdateXML of version Ver of document Doc
)

// op is one generated operation. Doc and Ver index the corpus (0-based);
// Query is set for the kinds that go through the query language.
type op struct {
	Kind  opKind
	Doc   int
	Ver   int
	Cold  bool // opSelect drawn from the whole corpus, not the hot set
	Word  string
	Query string
}

func selectOp(g *tdocgen.Generator, doc, ver int, cold bool) op {
	return op{Kind: opSelect, Doc: doc, Ver: ver, Cold: cold,
		Query: fmt.Sprintf(`SELECT R FROM doc(%q)[%s]/restaurant R`, g.URL(doc), dateLit(stampOf(ver)))}
}

func aggregateOp(g *tdocgen.Generator, doc, ver int, sum bool) op {
	fn := "COUNT"
	if sum {
		fn = "SUM"
	}
	return op{Kind: opAggregate, Doc: doc, Ver: ver,
		Query: fmt.Sprintf(`SELECT %s(R) FROM doc(%q)[%s]/restaurant R`, fn, g.URL(doc), dateLit(stampOf(ver)))}
}

// opGen draws the operations of the read workloads.
type opGen struct {
	sz      sizes
	g       *tdocgen.Generator
	r       *rand.Rand
	recency *rand.Zipf // 0 = the newest version
}

func newOpGen(sz sizes, g *tdocgen.Generator, workload string, seed int64) *opGen {
	salt := int64(0)
	for i, n := range workloadNames {
		if n == workload {
			salt = int64(i + 1)
		}
	}
	r := rand.New(rand.NewSource(seed*1_000_003 + salt))
	return &opGen{sz: sz, g: g, r: r, recency: rand.NewZipf(r, 1.2, 1, uint64(sz.HotVersions-1))}
}

func (og *opGen) cold() op {
	return selectOp(og.g, og.r.Intn(og.sz.Docs), og.r.Intn(og.sz.Versions), true)
}

// hotSet is one select per member of the hot set: the newest HotVersions
// versions of the first HotDocs documents.
func (sz sizes) hotSet(g *tdocgen.Generator) []op {
	var ops []op
	for doc := 0; doc < sz.HotDocs; doc++ {
		for back := 0; back < sz.HotVersions; back++ {
			ops = append(ops, selectOp(g, doc, sz.Versions-1-back, false))
		}
	}
	return ops
}

// hotSelect favours recent versions (Zipf over recency) and spreads evenly
// over the hot documents: documents of one seed differ in size by a sixth,
// and a popularity peak on one of them would make the workload's speed a
// property of the seed.
func (og *opGen) hotSelect() op {
	return selectOp(og.g, og.r.Intn(og.sz.HotDocs), og.sz.Versions-1-int(og.recency.Uint64()), false)
}

func (og *opGen) aggregate() op {
	return aggregateOp(og.g, og.r.Intn(og.sz.Docs), og.r.Intn(og.sz.Versions), og.r.Intn(2) == 0)
}

func (og *opGen) index() op {
	switch p := og.r.Intn(10); {
	case p < 5:
		return og.aggregate()
	case p < 8:
		// One of the 50 commonest content words, so histories are non-empty.
		return op{Kind: opHistory, Word: fmt.Sprintf("w%04d", og.r.Intn(50))}
	default:
		return op{Kind: opNavigate, Doc: og.r.Intn(og.sz.Docs), Ver: og.r.Intn(og.sz.Versions)}
	}
}

func (og *opGen) served() op {
	switch p := og.r.Intn(10); {
	case p < 7:
		return og.hotSelect()
	case p < 9:
		return og.aggregate()
	default:
		return og.cold()
	}
}

// genOps returns the seeded op list of a read workload.
func genOps(sz sizes, g *tdocgen.Generator, workload string, seed int64, n int) []op {
	og := newOpGen(sz, g, workload, seed)
	draw := map[string]func() op{
		snapshotCold: og.cold, snapshotHot: og.hotSelect, indexOnly: og.index, servedMixed: og.served,
	}[workload]
	ops := make([]op, n)
	for i := range ops {
		ops[i] = draw()
	}
	return ops
}

// digest identifies an op list: equal seeds give equal digests.
func digest(ops []op) string {
	h := sha256.New()
	for _, o := range ops {
		fmt.Fprintf(h, "%d|%d|%d|%t|%s|%s\n", o.Kind, o.Doc, o.Ver, o.Cold, o.Word, o.Query)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// sampled reports whether op-list index i belongs to the correctness
// sample: a seeded sixteenth of the list.
func sampled(seed int64, i int) bool {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return x%16 == 0
}

var (
	restaurantPattern = mustPath("restaurant")
	namePattern       = mustPath("restaurant", "name")
)

func mustPath(steps ...string) *pattern.PNode {
	rels := make([]pattern.Rel, len(steps))
	for i := range rels {
		rels[i] = pattern.Child
	}
	p, err := pattern.NewPath(steps, rels)
	if err != nil {
		panic(err) // a constant path cannot be malformed
	}
	return p
}

// chefPattern is restaurant/info/chef[~word], the history op's pattern.
func chefPattern(word string) *pattern.PNode {
	p := mustPath("restaurant", "info", "chef")
	leaf := p.Nodes()[2]
	leaf.Values = []pattern.ValuePred{{Word: word}}
	return p
}
