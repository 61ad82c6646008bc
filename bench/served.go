package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"txmldb/internal/core"
	"txmldb/internal/model"
	"txmldb/internal/query"
	"txmldb/internal/server"
	"txmldb/internal/shard"
	"txmldb/internal/tdocgen"
)

// servedState is a durable sharded router loaded with corpus R behind the
// query server on a loopback listener, and one keep-alive client.
type servedState struct {
	sz     sizes
	dir    string
	gen    *tdocgen.Generator
	rt     *shard.Router
	ids    []model.DocID
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

func serverConfig() server.Config { return server.Config{SlowQuery: -1} }

func setupServed(p params) (*servedState, error) {
	st := &servedState{sz: p.sz, gen: p.sz.readCorpus(p.seed, 0), served: make(chan error, 1)}
	var err error
	if st.dir, err = p.scratchDir(); err != nil {
		return nil, err
	}
	cfg := shard.Config{Shards: p.sz.Shards, Engine: func(int) core.Config { return p.sz.engineConfig() }}
	if st.rt, err = shard.OpenDurable(cfg, st.dir); err != nil {
		return nil, err
	}
	if st.ids, err = loadSharded(st.gen, st.rt, p.sz.Docs); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.base = "http://" + ln.Addr().String()
	st.hs = &http.Server{Handler: server.New(st.rt, serverConfig()).Handler()}
	go func() { st.served <- st.hs.Serve(ln) }()
	st.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	for _, o := range p.sz.hotSet(st.gen) { // warm the hot set over the wire
		if _, err := st.get(o.Query); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// loadSharded loads the corpus with one loader per shard, so the shards'
// commits (and their fsyncs) overlap. First versions go in sequentially:
// DocIDs are allocated in document order whatever the interleaving.
func loadSharded(g *tdocgen.Generator, rt *shard.Router, docs int) ([]model.DocID, error) {
	ids := make([]model.DocID, docs)
	hists := make([][]tdocgen.Version, docs)
	for i := range ids {
		hists[i] = g.History(i)
		var err error
		if ids[i], err = rt.Put(g.URL(i), hists[i][0].Tree, hists[i][0].At); err != nil {
			return nil, err
		}
	}
	errs := make([]error, rt.Shards())
	var wg sync.WaitGroup
	for s := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, h := range hists {
				if rt.HomeShard(g.URL(i)) != s {
					continue
				}
				for _, v := range h[1:] {
					if _, _, err := rt.Update(ids[i], v.Tree, v.At); err != nil {
						errs[s] = fmt.Errorf("loading document %d: %w", i, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	return ids, errors.Join(errs...)
}

// close stops the server, waits for it, closes the router and removes the
// store.
func (st *servedState) close() {
	if st == nil {
		return
	}
	if st.hs != nil {
		_ = st.hs.Shutdown(context.Background()) // no request is in flight: the one client has returned
		<-st.served
		st.client.CloseIdleConnections()
	}
	if st.rt != nil {
		_ = st.rt.Close() // the directory is removed next; nothing to recover
	}
	_ = os.RemoveAll(st.dir)
}

// canonicalBody cuts a query response down to its columns and rows,
// dropping the elapsed time and counters that differ between engines.
func canonicalBody(body []byte) (string, error) {
	i := bytes.LastIndex(body, []byte(`],"row_count"`))
	if i < 0 {
		return "", fmt.Errorf("unexpected response %.80q", body)
	}
	return string(body[:i]), nil
}

// get issues one query over the wire. Anything but a 200 (a 429 or 503
// refusal included) is a failed operation.
func (st *servedState) get(q string) (string, error) {
	resp, err := st.client.Get(st.base + "/query?q=" + url.QueryEscape(q))
	if err != nil {
		return "", err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d: %.120s", resp.StatusCode, body)
	}
	return canonicalBody(body)
}

// scrape reads the named series off /metrics.
func (st *servedState) scrape(names ...string) (map[string]float64, error) {
	resp, err := st.client.Get(st.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		for _, want := range names {
			if ok && name == want {
				if out[name], err = strconv.ParseFloat(value, 64); err != nil {
					return nil, err
				}
			}
		}
	}
	return out, sc.Err()
}

// writer commits new versions of the hot-set documents through the router
// on a fixed schedule (paced, not closed-loop: the write load does not
// depend on how fast the engine is) and records how late each commit began.
type writer struct {
	st    *servedState
	hist  [][]tdocgen.Version // hist[doc], extended beyond the loaded versions
	stop  chan struct{}
	wg    sync.WaitGroup
	lags  []float64 // ms
	wrote []int     // versions written per hot document
	err   error
}

func (st *servedState) startWriter(p params) *writer {
	extra := int(float64(p.sz.WriteRate)*p.window.Seconds())/p.sz.HotDocs + 2
	long := p.sz.readCorpus(p.seed, extra)
	w := &writer{st: st, stop: make(chan struct{}), wrote: make([]int, p.sz.HotDocs)}
	for d := 0; d < p.sz.HotDocs; d++ {
		w.hist = append(w.hist, long.History(d))
	}
	interval := time.Second / time.Duration(p.sz.WriteRate)
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		start := time.Now()
		for k := 0; ; k++ {
			doc, ver := k%p.sz.HotDocs, p.sz.Versions+k/p.sz.HotDocs
			if ver >= len(w.hist[doc]) {
				return
			}
			due := start.Add(time.Duration(k) * interval)
			select {
			case <-w.stop:
				return
			case <-time.After(time.Until(due)):
			}
			w.lags = append(w.lags, millis(time.Since(due)))
			v := w.hist[doc][ver]
			if _, _, err := st.rt.Update(st.ids[doc], v.Tree, v.At); err != nil {
				w.err = fmt.Errorf("writer: version %d of document %d: %w", ver+1, doc, err)
				return
			}
			w.wrote[doc]++
		}
	}()
	return w
}

// finish stops the writer, waits for it and checks that every version it
// was acknowledged reads back as the generator made it.
func (w *writer) finish(l *loop) {
	close(w.stop)
	w.wg.Wait()
	if w.err != nil {
		l.fail("%v", w.err)
	}
	for doc, n := range w.wrote {
		hist, err := w.st.rt.DocHistory(w.st.ids[doc], model.Always)
		if err != nil {
			l.fail("history of written document %d: %v", doc, err)
			continue
		}
		if len(hist) != w.st.sz.Versions+n {
			l.fail("document %d has %d versions, want %d", doc, len(hist), w.st.sz.Versions+n)
			continue
		}
		for _, vt := range hist[w.st.sz.Versions:] {
			if vt.Root.String() != w.hist[doc][vt.Info.Ver-1].Tree.String() {
				l.fail("written version %d of document %d reads back differently", vt.Info.Ver, doc)
			}
		}
	}
}

func (w *writer) lag() (mean, p95 float64) {
	if len(w.lags) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), w.lags...)
	sort.Float64s(s)
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s)), percentile(s, 95)
}

// servedProbes is the traced run: every round trip is followed by the same
// query in process, and the router's counters are diffed around the round
// trip. The concurrent writer also passes the shard gates and invalidates
// cache entries, so these counts, unlike the other workloads', do not
// repeat exactly.
type servedProbes struct {
	st       *servedState
	tr       *tracer
	ops      int
	c        counters
	shardOps []int64
	overhead time.Duration // round trip minus in-process query, ops that cannot miss the cache
	warmOps  int
}

func (pr *servedProbes) exec(ctx context.Context, o op) (string, error) {
	pr.tr.nextOp()
	pr.ops++
	before, shards0 := snapCounters(pr.st.rt), pr.st.rt.ShardStats()
	var out string
	var err error
	var trip time.Duration
	pr.tr.do("op", func() { trip = pr.tr.do("server.roundtrip", func() { out, err = pr.st.get(o.Query) }) })
	pr.c.add(before, snapCounters(pr.st.rt))
	for i, s := range pr.st.rt.ShardStats() {
		pr.shardOps[i] += s.Ops - shards0[i].Ops
	}
	if err != nil {
		return "", err
	}
	pr.tr.do("probes", func() {
		pr.tr.do("query.parse", func() { _, err = query.Parse(o.Query) })
		inProcess := pr.tr.do("core.query", func() { _, err = pr.st.rt.QueryContext(ctx, o.Query) })
		if !o.Cold { // a cold op's second execution would find the version cached
			pr.overhead += trip - inProcess
			pr.warmOps++
		}
	})
	return out, err
}

// runServed is the served-mixed workload.
func runServed(ctx context.Context, p params) (*outcome, error) {
	st, setupS, err := repeatSetup(p.sz.SetupRepeats,
		func() (*servedState, error) { return setupServed(p) }, (*servedState).close)
	defer st.close()
	if err != nil {
		return nil, err
	}
	ops := genOps(p.sz, st.gen, p.workload, p.seed, p.listLen())
	out := newOutcome(p, ops)
	l := &loop{ops: ops, seed: p.seed}
	l.exec = func(_ int, o op) (string, error) { return st.get(o.Query) }

	var w *writer
	if p.trace {
		l.run(0, len(ops)) // base of trace.overhead: untraced, no writer
		baseRate := ratio(float64(len(l.samples)), l.elapsed.Seconds())
		pr := &servedProbes{st: st, tr: newTracer(), shardOps: make([]int64, p.sz.Shards)}
		scrape0, err := st.scrape("txserved_rejected_total")
		if err != nil {
			return nil, err
		}
		pool0 := st.rt.PoolStats()
		l.samples, l.pos = nil, 0
		l.exec = func(_ int, o op) (string, error) { return pr.exec(ctx, o) }
		w = st.startWriter(p)
		l.run(0, len(ops))
		w.finish(l)
		scrape1, err := st.scrape("txserved_rejected_total", "txserved_queued_requests")
		if err != nil {
			return nil, err
		}
		layers := pr.tr.byName()
		m := out.Metrics
		m["server.roundtrip_us"] = layers["server.roundtrip"].meanUs()
		m["core.query_us"] = layers["core.query"].meanUs()
		m["query.parse_us"] = layers["query.parse"].meanUs()
		m["server.overhead_us"] = ratio(micros(pr.overhead), float64(pr.warmOps))
		m["server.rejected"] = scrape1["txserved_rejected_total"] - scrape0["txserved_rejected_total"]
		m["server.queued"] = scrape1["txserved_queued_requests"]
		var sum, top int64
		for _, n := range pr.shardOps {
			sum, top = sum+n, max(top, n)
		}
		m["shard.fanout_per_op"] = ratio(float64(sum), float64(pr.ops))
		m["shard.skew"] = ratio(float64(top)*float64(p.sz.Shards), float64(sum))
		var task, wall time.Duration
		pool1 := st.rt.PoolStats()
		for name, s := range pool1.Scopes {
			task += s.TaskTime - pool0.Scopes[name].TaskTime
			wall += s.WallTime - pool0.Scopes[name].WallTime
		}
		m["parallel.task_over_wall"] = ratio(float64(task), float64(wall))
		pr.c.report(m, float64(pr.ops))
		m["shard.write_lag_ms"], _ = w.lag()
		m["shard.writes"] = float64(len(w.lags))
		traceMetrics(out, pr.tr, ratio(float64(len(l.samples)), l.elapsed.Seconds()), baseRate)
		if err := pr.tr.write(p.tracePath()); err != nil {
			return nil, err
		}
	} else {
		w = st.startWriter(p)
		l.timed(p.window)
		w.finish(l)
		out.endToEnd(summarize(l.samples, p.window), setupS)
	}
	mean, p95 := w.lag()
	out.note("writer: %d commits at %d/s, write lag mean %.3f ms, p95 %.3f ms", len(w.lags), p.sz.WriteRate, mean, p95)

	// The oracle answers through the same handler, in process.
	ref := core.Open(p.sz.referenceConfig())
	if _, err := st.gen.Load(ref); err != nil {
		return nil, err
	}
	handler := server.New(ref, serverConfig()).Handler()
	l.verify("the reference engine", func(o op) (string, error) {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query?q="+url.QueryEscape(o.Query), nil))
		if rec.Code != http.StatusOK {
			return "", errors.New(rec.Body.String())
		}
		return canonicalBody(rec.Body.Bytes())
	})
	out.count(l)
	return out, nil
}
