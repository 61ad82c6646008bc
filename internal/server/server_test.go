package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"txmldb"
	"txmldb/internal/core"
	"txmldb/internal/model"
	"txmldb/internal/tdocgen"
)

// figure1DB loads the paper's Figure 1 restaurant history.
func figure1DB(tb testing.TB) *core.DB {
	tb.Helper()
	db := core.Open(core.Config{Clock: func() model.Time { return model.Date(2001, 2, 10) }})
	if err := tdocgen.LoadFigure1(db); err != nil {
		tb.Fatal(err)
	}
	return db
}

// figure1Server serves the paper's Figure 1 restaurant history.
func figure1Server(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(figure1DB(t), cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// queryResponse mirrors the streamed /query JSON envelope.
type queryResponse struct {
	Columns  []string          `json:"columns"`
	Rows     []json.RawMessage `json:"rows"`
	RowCount int               `json:"row_count"`
	Metrics  struct {
		PatternMatches  int `json:"pattern_matches"`
		Reconstructions int `json:"reconstructions"`
		RowsExamined    int `json:"rows_examined"`
	} `json:"metrics"`
	ElapsedMs float64 `json:"elapsed_ms"`
}

type errorResponse struct {
	Error struct {
		Kind    string `json:"kind"`
		Message string `json:"message"`
		Line    int    `json:"line"`
		Col     int    `json:"col"`
		Offset  int    `json:"offset"`
	} `json:"error"`
}

func getQuery(t *testing.T, ts *httptest.Server, q string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/query?q=" + url.QueryEscape(q))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestServeFigure1Queries runs the paper's Q1–Q3 over HTTP and checks the
// answers against the text (the acceptance scenario).
func TestServeFigure1Queries(t *testing.T) {
	_, ts := figure1Server(t, Config{})

	// Q1: snapshot at 26/01/2001 — Napoli(15) and Akropolis(13).
	resp, body := getQuery(t, ts,
		`SELECT R FROM doc("http://guide.com/restaurants.xml")[26/01/2001]/restaurant R`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("Q1 status = %d, body %s", resp.StatusCode, body)
	}
	var q1 queryResponse
	if err := json.Unmarshal(body, &q1); err != nil {
		t.Fatalf("Q1 response is not valid JSON: %v\n%s", err, body)
	}
	if q1.RowCount != 2 || len(q1.Rows) != 2 {
		t.Fatalf("Q1 rows = %d (%d streamed), want 2", q1.RowCount, len(q1.Rows))
	}
	all := string(body)
	for _, want := range []string{"Napoli", "15", "Akropolis", "13"} {
		if !strings.Contains(all, want) {
			t.Errorf("Q1 response missing %q", want)
		}
	}

	// Q2: the aggregate counts 2 restaurants with zero reconstructions.
	resp, body = getQuery(t, ts,
		`SELECT SUM(R) FROM doc("http://guide.com/restaurants.xml")[26/01/2001]/restaurant R`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("Q2 status = %d, body %s", resp.StatusCode, body)
	}
	var q2 queryResponse
	if err := json.Unmarshal(body, &q2); err != nil {
		t.Fatal(err)
	}
	if q2.RowCount != 1 || string(q2.Rows[0]) != "[2]" {
		t.Errorf("Q2 rows = %v (count %d), want [[2]]", q2.Rows, q2.RowCount)
	}
	if q2.Metrics.Reconstructions != 0 {
		t.Errorf("Q2 reconstructions = %d, want 0 (the paper's Section 6.2 point)", q2.Metrics.Reconstructions)
	}

	// Q3: Napoli's price history — 15 on Jan 1, 18 on Jan 31.
	resp, body = getQuery(t, ts,
		`SELECT TIME(R), R/price FROM doc("http://guide.com/restaurants.xml")[EVERY]/restaurant R WHERE R/name="Napoli"`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("Q3 status = %d, body %s", resp.StatusCode, body)
	}
	var q3 queryResponse
	if err := json.Unmarshal(body, &q3); err != nil {
		t.Fatal(err)
	}
	if q3.RowCount != 2 {
		t.Fatalf("Q3 rows = %d, want 2; body %s", q3.RowCount, body)
	}
	hist := map[string]string{}
	for _, raw := range q3.Rows {
		var row []any
		if err := json.Unmarshal(raw, &row); err != nil {
			t.Fatal(err)
		}
		at := row[0].(string)
		price := row[1].([]any)[0].(string)
		hist[at] = price
	}
	if !strings.Contains(hist["2001-01-01 00:00:00"], "15") || !strings.Contains(hist["2001-01-31 00:00:00"], "18") {
		t.Errorf("Q3 history = %v, want 15@Jan1 and 18@Jan31", hist)
	}
}

// TestParseErrorResponse checks malformed queries come back as 400 with
// kind "parse" and the error position.
func TestParseErrorResponse(t *testing.T) {
	_, ts := figure1Server(t, Config{})
	for _, src := range []string{
		`SELECT R WHERE x`,
		`SELECT R FROM doc("u`,
		`SELECT R FROM doc("u")/r R WHERE R ? 1`,
	} {
		resp, body := getQuery(t, ts, src)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%q: status = %d, want 400; body %s", src, resp.StatusCode, body)
			continue
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("%q: bad error body %s", src, body)
		}
		if er.Error.Kind != "parse" {
			t.Errorf("%q: kind = %q, want parse", src, er.Error.Kind)
		}
		if er.Error.Line < 1 || er.Error.Col < 1 {
			t.Errorf("%q: missing position in %+v", src, er.Error)
		}
	}

	// Non-query junk is a bad_request, not a parse error.
	resp, body := func() (*http.Response, []byte) {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"query":""}`))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, b
	}()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "bad_request") {
		t.Errorf("empty query: status %d body %s, want 400 bad_request", resp.StatusCode, body)
	}
}

// memEngine is an empty in-memory engine for stubs to embed: it answers
// every Engine method a stub does not override.
func memEngine() *txmldb.DB { return txmldb.Open(txmldb.Config{}) }

// blockingEngine parks every query until release is closed, and reports
// entry on entered.
type blockingEngine struct {
	*txmldb.DB
	entered chan struct{}
	release chan struct{}
}

func newBlockingEngine(entered int) *blockingEngine {
	return &blockingEngine{DB: memEngine(), entered: make(chan struct{}, entered), release: make(chan struct{})}
}

func (e *blockingEngine) QueryContext(ctx context.Context, src string) (*txmldb.Result, error) {
	select {
	case e.entered <- struct{}{}:
	default:
	}
	select {
	case <-e.release:
		return &txmldb.Result{Columns: []string{"x"}, Rows: [][]any{{int64(1)}}}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TestOverload429 saturates a 1-slot, 1-queue server and checks the third
// request is rejected immediately with 429 + Retry-After.
func TestOverload429(t *testing.T) {
	eng := newBlockingEngine(16)
	s := New(eng, Config{MaxInFlight: 1, MaxQueue: 1, QueueWait: 5 * time.Second, ErrorLog: discardLogger()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	results := make(chan int, 2)
	do := func() {
		resp, err := http.Get(ts.URL + "/query?q=x")
		if err != nil {
			results <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		results <- resp.StatusCode
	}
	// First request takes the only slot.
	go do()
	<-eng.entered
	// Second request joins the queue; wait until the server sees it.
	go do()
	deadline := time.Now().Add(5 * time.Second)
	for s.gate.queueDepth() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// Third request finds slot busy and queue full: immediate 429.
	resp, err := http.Get(ts.URL + "/query?q=x")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429; body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	if !strings.Contains(string(body), "overload") {
		t.Errorf("429 body = %s, want kind overload", body)
	}

	// Releasing lets both admitted requests finish.
	close(eng.release)
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Errorf("admitted request %d finished with %d, want 200", i, code)
		}
	}
	if got := s.mRejected.Value(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
}

// TestQueryTimeout checks a query that exceeds its deadline mid-execution
// comes back 504 and leaves the server healthy.
func TestQueryTimeout(t *testing.T) {
	eng := newBlockingEngine(1)
	s := New(eng, Config{QueryTimeout: 20 * time.Second, SlowQuery: -1, ErrorLog: discardLogger()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/query?q=x&timeout_ms=30")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", resp.StatusCode, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error.Kind != "timeout" {
		t.Errorf("body = %s, want kind timeout", body)
	}
	if got := s.mTimeouts.Value(); got != 1 {
		t.Errorf("timeout counter = %d, want 1", got)
	}

	// The slot was released: a fresh query is admitted and completes.
	close(eng.release)
	resp2, err := http.Get(ts.URL + "/query?q=x")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("post-timeout query status = %d, want 200", resp2.StatusCode)
	}
}

// TestRealQueryTimeoutMidExecution drives the real engine with an
// already-expired deadline: plan execution must notice and abort.
func TestRealQueryTimeoutMidExecution(t *testing.T) {
	db := figure1DB(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := db.QueryContext(ctx,
		`SELECT R FROM doc("http://guide.com/restaurants.xml")[26/01/2001]/restaurant R`)
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

type panicEngine struct{ *txmldb.DB }

func (panicEngine) QueryContext(ctx context.Context, src string) (*txmldb.Result, error) {
	panic("boom")
}

// TestPanicRecovery checks a handler panic becomes a 500, is counted, and
// does not kill the server.
func TestPanicRecovery(t *testing.T) {
	s := New(panicEngine{memEngine()}, Config{ErrorLog: discardLogger()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/query?q=x")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500; body %s", resp.StatusCode, body)
	}
	if got := s.mPanics.Value(); got != 1 {
		t.Errorf("panic counter = %d, want 1", got)
	}
	// Server still serves.
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("healthz after panic = %d, want 200", resp2.StatusCode)
	}
}

// TestMetricsAndHealth drives traffic then checks /metrics exposes
// non-zero counters and a populated latency histogram, and /healthz
// reports the document count.
func TestMetricsAndHealth(t *testing.T) {
	_, ts := figure1Server(t, Config{})
	for i := 0; i < 5; i++ {
		resp, body := getQuery(t, ts,
			`SELECT SUM(R) FROM doc("http://guide.com/restaurants.xml")[26/01/2001]/restaurant R`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d failed: %s", i, body)
		}
	}
	getQuery(t, ts, `SELECT nonsense`) // one parse error

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(body)
	// Every execution (the 5 successes and the parse failure) lands in the
	// latency histogram; only successes count as queries.
	for _, want := range []string{
		"txserved_queries_total 5",
		"txserved_errors_parse_total 1",
		"txserved_query_latency_ms_count 6",
		"txserved_http_requests_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, `txserved_query_latency_ms_bucket{le="+Inf"} 6`) {
		t.Errorf("/metrics latency histogram not populated:\n%s", out)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	var health map[string]any
	if err := json.Unmarshal(hbody, &health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" {
		t.Errorf("healthz status = %v, want ok", health["status"])
	}
	if docs, ok := health["docs"].(float64); !ok || docs != 1 {
		t.Errorf("healthz docs = %v, want 1", health["docs"])
	}
}

// TestExplainEndpoint checks /explain returns the operator plan.
func TestExplainEndpoint(t *testing.T) {
	_, ts := figure1Server(t, Config{})
	resp, err := http.Get(ts.URL + "/explain?q=" + url.QueryEscape(
		`SELECT R FROM doc("http://guide.com/restaurants.xml")[26/01/2001]/restaurant R`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "TPatternScan") {
		t.Errorf("explain = %d %s, want 200 with TPatternScan", resp.StatusCode, body)
	}
}

// TestGracefulShutdownDrains starts a real listener, parks a query
// in-flight, triggers shutdown, and checks the in-flight request still
// completes with 200 before Run returns.
func TestGracefulShutdownDrains(t *testing.T) {
	eng := newBlockingEngine(1)
	s := New(eng, Config{ErrorLog: discardLogger()})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- s.Run(ctx, l, 10*time.Second) }()

	base := "http://" + l.Addr().String()
	reqDone := make(chan int, 1)
	go func() {
		resp, err := http.Get(base + "/query?q=x")
		if err != nil {
			reqDone <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		reqDone <- resp.StatusCode
	}()
	<-eng.entered

	// Shutdown begins while the query is executing.
	cancel()
	select {
	case err := <-runDone:
		t.Fatalf("Run returned %v before the in-flight request finished", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(eng.release)
	if code := <-reqDone; code != http.StatusOK {
		t.Errorf("in-flight request finished with %d, want 200", code)
	}
	select {
	case err := <-runDone:
		if err != nil {
			t.Errorf("Run = %v, want nil after clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after drain")
	}
	// New connections are refused after shutdown.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("server still accepting connections after shutdown")
	}
}

// TestConcurrentQueriesAgainstWriter floods the server with reads while a
// writer appends versions; run under -race this exercises the full
// HTTP → facade → plan → store path concurrently.
func TestConcurrentQueriesAgainstWriter(t *testing.T) {
	db := txmldb.Open(txmldb.Config{Clock: func() txmldb.Time { return 1_000_000 }})
	mkXML := func(price int) string {
		return fmt.Sprintf(`<guide><restaurant><name>Napoli</name><price>%d</price></restaurant></guide>`, price)
	}
	id, err := db.PutXML("u", strings.NewReader(mkXML(1)), 1000)
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, Config{MaxInFlight: 16, ErrorLog: discardLogger()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	stop := make(chan struct{})
	var writerErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := 2; ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := db.UpdateXML(id, strings.NewReader(mkXML(v)), txmldb.Time(1000+v)); err != nil {
				writerErr = err
				return
			}
		}
	}()

	var readerWg sync.WaitGroup
	errs := make(chan string, 64)
	for r := 0; r < 8; r++ {
		readerWg.Add(1)
		go func() {
			defer readerWg.Done()
			for i := 0; i < 25; i++ {
				resp, err := http.Get(ts.URL + "/query?q=" + url.QueryEscape(
					`SELECT COUNT(R) FROM doc("u")/restaurant R`))
				if err != nil {
					errs <- err.Error()
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("status %d: %s", resp.StatusCode, body)
					return
				}
			}
		}()
	}
	readerWg.Wait()
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if writerErr != nil {
		t.Fatal(writerErr)
	}
}

func discardLogger() *log.Logger { return log.New(io.Discard, "", 0) }

// TestClientDisconnect499 checks that a client hanging up mid-execution is
// mapped to the 499-style close (kind "canceled"), counted, and recorded
// with status 499 in the access log — not reported as a timeout or an
// internal error.
func TestClientDisconnect499(t *testing.T) {
	eng := newBlockingEngine(1)
	var logMu sync.Mutex
	var logBuf strings.Builder
	s := New(eng, Config{
		SlowQuery: -1,
		ErrorLog:  discardLogger(),
		AccessLog: log.New(&lockedWriter{mu: &logMu, w: &logBuf}, "", 0),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/query?q=x", nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		done <- err
	}()
	<-eng.entered
	cancel()
	if err := <-done; err == nil {
		t.Fatal("request succeeded despite client cancellation")
	}

	deadline := time.Now().Add(5 * time.Second)
	for s.mCanceled.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("canceled counter never incremented: disconnect not classified")
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.mTimeouts.Value(); got != 0 {
		t.Errorf("timeout counter = %d, want 0 (disconnect is not a timeout)", got)
	}
	if got := s.mInternal.Value(); got != 0 {
		t.Errorf("internal counter = %d, want 0 (disconnect is not an internal error)", got)
	}
	waitLog := time.Now().Add(5 * time.Second)
	for {
		logMu.Lock()
		line := logBuf.String()
		logMu.Unlock()
		if strings.Contains(line, "status=499") {
			break
		}
		if time.Now().After(waitLog) {
			t.Fatalf("access log lacks status=499: %q", line)
		}
		time.Sleep(time.Millisecond)
	}

	// The execution slot was released: a fresh query completes normally.
	close(eng.release)
	resp, err := http.Get(ts.URL + "/query?q=x")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-disconnect query status = %d, want 200", resp.StatusCode)
	}
}

// lockedWriter serializes log writes so the test can read the buffer while
// the handler goroutine is still logging.
type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}
