package oracle

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"txmldb/internal/core"
	"txmldb/internal/model"
	"txmldb/internal/pagestore"
	"txmldb/internal/resilience"
	"txmldb/internal/server"
	"txmldb/internal/shard"
	"txmldb/internal/store"
	"txmldb/internal/vcache"
	"txmldb/internal/xmltree"
)

// TestFaultCampaign and TestShardOutageCampaign hold the checks that
// depend on timing and so stay out of the fuzz body. A fixed-seed history
// is loaded into the reference and into a resilience-enabled engine over
// fault injectors, served over HTTP. Then one device dies under concurrent
// queries and comes back. Throughout, every answer equals the reference's
// or fails typed, /healthz answers 200, and the tier passes healthy →
// degraded → healthy on its own, and the breaker opens.
//
// TestFaultCampaign serves a single engine with the version cache, which
// must serve cached answers while degraded; its /readyz flips both ways.
func TestFaultCampaign(t *testing.T) { campaign(t, 1) }

// TestShardOutageCampaign serves a router of three shards without the
// cache, so the storm's reads reach the dead device; with one sick shard
// the router stays ready.
func TestShardOutageCampaign(t *testing.T) { campaign(t, 3) }

func campaign(t *testing.T, shards int) {
	injs := make([]*pagestore.Injector, shards)
	engine := func(i int) core.Config {
		injs[i] = pagestore.NewInjector(pagestore.NewMemory(), int64(i)+1)
		cfg := core.Config{
			Clock: clock,
			Store: store.Config{Pages: pagestore.Config{Backend: injs[i]},
				ReadRetries: 1, RetryBackoff: 100 * time.Microsecond, RetrySeed: 42},
			Resilience: resilience.Config{Enabled: true,
				Breaker: resilience.BreakerConfig{FailureThreshold: 5, OpenFor: 25 * time.Millisecond, ProbeSuccesses: 2},
				Health:  resilience.HealthConfig{DegradeAfter: 3, FailAfter: 1 << 30, RecoverAfter: 3}},
		}
		if shards == 1 {
			cfg.Cache = vcache.Config{MaxBytes: 16 << 20}
		}
		return cfg
	}
	h := &run{t: t, c: cell{shards: shards, workers: 1}, ref: newReference(42, 3), at: epoch0}
	var health func() (resilience.Snapshot, bool)
	var srv *server.Server
	if shards == 1 {
		db := core.Open(engine(0))
		h.sut, health, srv = single(db), db.Health, server.New(db, server.Config{})
	} else {
		r := shard.Open(shard.Config{Shards: shards, Engine: engine})
		h.sut, health, srv = sharded(r), r.Health, server.New(r, server.Config{})
	}
	defer h.sut.Close()
	for v := 0; v < 6; v++ {
		for s := 0; s < slots; s++ {
			h.write(s, false)
		}
	}
	victim := h.sut.shardOf(h.ref.gen.URL(0), h.ref.slot[0].sut)
	sick := func(s int) bool { return h.sut.shardOf("", h.ref.slot[s].sut) == victim }

	// Poll the probes and the tier state for the whole campaign.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var healthzBad, polls atomic.Int64
	var readyOK, readyNot atomic.Bool
	var statesMu sync.Mutex
	var states []resilience.State
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			if snap, ok := health(); ok {
				statesMu.Lock()
				if n := len(states); n == 0 || states[n-1] != snap.State {
					states = append(states, snap.State)
				}
				statesMu.Unlock()
			}
			polls.Add(1)
			if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
				healthzBad.Add(1)
			} else {
				resp.Body.Close()
			}
			if resp, err := http.Get(ts.URL + "/readyz"); err == nil {
				readyOK.CompareAndSwap(false, resp.StatusCode == http.StatusOK)
				readyNot.CompareAndSwap(false, resp.StatusCode == http.StatusServiceUnavailable)
				resp.Body.Close()
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()

	// ask answers q; a success must be the reference's answer, a failure
	// typed, and allowed only when fail says so.
	var answered, failed atomic.Int64
	ctx := context.Background()
	ask := func(q string, fail bool) {
		res, err := h.sut.QueryContext(ctx, q)
		if err != nil {
			failed.Add(1)
			if !typed(err) || !fail {
				t.Errorf("%s: %v", q, err)
			}
			return
		}
		answered.Add(1)
		if want, err := h.ref.db.QueryContext(ctx, q); err != nil || rows(res) != rows(want) {
			t.Errorf("%s: answer differs from the reference (%v)", q, err)
		}
	}
	snapshot := func(s int, v int) string {
		return fmt.Sprintf(`SELECT TIME(R), R FROM doc(%q)[%s]/restaurant R`, h.ref.gen.URL(s), day0(epoch0+model.Time(1+slots*v+s)*day))
	}
	everything := func(fail func(s int) bool) {
		for s := 0; s < slots; s++ {
			for v := 0; v < 6; v++ {
				ask(snapshot(s, v), fail(s))
			}
		}
	}
	never := func(int) bool { return false }

	// Warm the even versions into the caches; the odd ones stay cold.
	for s := 0; s < slots; s++ {
		for v := 0; v < 6; v += 2 {
			ask(snapshot(s, v), false)
		}
	}
	// Storm: the victim's device dies under four concurrent clients.
	injs[victim].SetOutage(true)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				s := (w + i) % slots
				ask(snapshot(s, (w*7+i)%6), sick(s))
			}
		}(w)
	}
	wg.Wait()
	snap, _ := health()
	if snap.State != resilience.Degraded || snap.Breaker.Opens == 0 || failed.Load() == 0 || shards == 1 && snap.DegradedServes == 0 {
		t.Fatalf("storm: tier %+v, %d typed failures: want degraded with an opened breaker and degraded serves", snap, failed.Load())
	}
	if !h.sut.DegradedMode() {
		t.Fatal("storm: engine not in degraded mode")
	}
	if err := h.sut.update(h.ref.slot[0].sut, h.ref.tree(step{slot: 0, ver: 9}), h.at+day); !errors.Is(err, resilience.ErrDegraded) {
		t.Fatalf("write to the sick engine = %v, want ErrDegraded", err)
	}
	if _, _, err := h.sut.teids(restaurant); !typed(err) {
		t.Fatalf("reconstructing every version through a dead device = %v, want a typed failure", err)
	}
	if shards > 1 {
		// The rest of the keyspace keeps writing and answering, and
		// index-only scans never touch a device.
		for s := 0; s < slots; s++ {
			if !sick(s) {
				h.write(s, false)
			}
		}
		everything(sick)
		_, label := h.ref.ids(true)
		_, refLabel := h.ref.ids(false)
		got, err := h.sut.ScanAllContext(ctx, restaurant)
		want, _ := h.ref.db.ScanAllContext(ctx, restaurant)
		if err != nil || matches(got, label, false) != matches(want, refLabel, false) {
			t.Fatalf("index-only scan during the outage: %v", err)
		}
	}

	// Heal: probes close the breaker and the tier steps back to healthy.
	injs[victim].SetOutage(false)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if snap, _ := health(); snap.State == resilience.Healthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tier never recovered: %+v", snap)
		}
		everything(sick)
	}
	everything(never)
	h.write(0, false) // a write after the heal is visible at once
	ask(fmt.Sprintf(`SELECT TIME(R), R FROM doc(%q)/restaurant R`, h.ref.gen.URL(0)), false)
	h.check()

	// Latency spikes are not failures: a fresh write forces the reads
	// through the slow device, and the tier stays healthy.
	h.write(0, false)
	injs[victim].Script(pagestore.FaultRule{Op: pagestore.FaultRead, Kind: pagestore.FaultLatency,
		At: injs[victim].Reads() + 1, Count: 64, Delay: 2 * time.Millisecond})
	everything(never)
	if snap, _ := health(); snap.State != resilience.Healthy {
		t.Fatalf("latency spikes degraded the tier: %+v", snap)
	}

	close(stop)
	<-done
	statesMu.Lock()
	defer statesMu.Unlock()
	if fmt.Sprint(states) != "[healthy degraded healthy]" {
		t.Errorf("tier states %v, want healthy → degraded → healthy", states)
	}
	if healthzBad.Load() != 0 {
		t.Errorf("/healthz failed %d of %d polls", healthzBad.Load(), polls.Load())
	}
	if readyNot.Load() != (shards == 1) || !readyOK.Load() {
		t.Errorf("/readyz ready=%v not-ready=%v over the campaign", readyOK.Load(), readyNot.Load())
	}
	t.Logf("%d answers, %d typed failures, %d probe polls, breaker opened %d times, %d degraded serves",
		answered.Load(), failed.Load(), polls.Load(), snap.Breaker.Opens, snap.DegradedServes)
}

// TestCorruptionAtRest flips a bit in a delta extent: reads through it
// fail typed and never answer wrong, Fsck finds it and pins the tier
// degraded, writes are rejected, and the other documents still answer.
func TestCorruptionAtRest(t *testing.T) {
	inj := pagestore.NewInjector(pagestore.NewMemory(), 1)
	db := core.Open(core.Config{Clock: clock, Store: store.Config{Pages: pagestore.Config{Backend: inj}},
		Resilience: resilience.Config{Enabled: true}})
	h := &run{t: t, c: cell{shards: 1, workers: 1}, sut: single(db), ref: newReference(42, 3), at: epoch0}
	for v := 0; v < 4; v++ {
		for s := 0; s < 2; s++ {
			h.write(s, false)
		}
	}
	vs, err := db.Versions(h.ref.slot[0].sut)
	if err != nil || vs[1].DeltaToNext.Zero() {
		t.Fatalf("versions %+v: %v", vs, err)
	}
	if err := inj.CorruptExtent(vs[1].DeltaToNext.Start); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := func(s int) string {
		return fmt.Sprintf(`SELECT R FROM doc(%q)[%s]/restaurant R`, h.ref.gen.URL(s), day0(vs[0].Stamp))
	}
	if res, err := db.QueryContext(ctx, q(0)); err == nil {
		if want, _ := h.ref.db.QueryContext(ctx, q(0)); rows(res) != rows(want) {
			t.Fatal("a corrupt extent produced a wrong answer")
		}
	} else if !errors.Is(err, store.ErrUnreachable) && !errors.Is(err, pagestore.ErrCorrupt) {
		t.Fatalf("read through corruption = %v, want ErrUnreachable or ErrCorrupt", err)
	}
	if rep := db.Fsck(); rep.Clean() {
		t.Fatal("fsck missed the corrupt extent")
	}
	if snap, _ := db.Health(); snap.State != resilience.Degraded {
		t.Fatalf("tier after a dirty fsck: %+v", snap)
	}
	if err := h.sut.update(h.ref.slot[0].sut, h.ref.tree(step{ver: 9}), h.at+day); !errors.Is(err, resilience.ErrDegraded) {
		t.Fatalf("write after corruption = %v, want ErrDegraded", err)
	}
	res, err := db.QueryContext(ctx, q(1))
	if want, _ := h.ref.db.QueryContext(ctx, q(1)); err != nil || rows(res) != rows(want) {
		t.Fatalf("undamaged document: %v", err)
	}
}

// TestPinnedQueriesRaceWriters runs epoch-pinned [EVERY] queries while
// writers commit, with the version cache on: each racing answer must equal
// the same query at the same pin re-run once the writers are done. The
// writers only change a price: a writer publishes its version before it
// updates the indexes, so a query pinned in between can still see an
// element the new version deleted and fail to find it.
func TestPinnedQueriesRaceWriters(t *testing.T) {
	ref := newReference(42, 3)
	db := core.Open(core.Config{Clock: clock, Cache: vcache.Config{MaxBytes: 1 << 20}})
	guide := func(price int) *xmltree.Node {
		return xmltree.Elem("guide", xmltree.Elem("restaurant",
			xmltree.ElemText("name", "Napoli"), xmltree.ElemText("price", fmt.Sprint(price))))
	}
	ids := make([]model.DocID, slots)
	for s := range ids {
		var err error
		if ids[s], err = db.Put(ref.gen.URL(s), guide(0), epoch0); err != nil {
			t.Fatal(err)
		}
	}
	type answer struct {
		pin    uint64
		q, out string
	}
	var mu sync.Mutex
	var answers []answer
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for s := range ids {
		writers.Add(1)
		go func(s int) {
			defer writers.Done()
			for v := 1; v < 30; v++ {
				if _, _, err := db.Update(ids[s], guide(v), epoch0+model.Time(v)*day); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				pin := db.Epoch()
				q := fmt.Sprintf(`SELECT TIME(R), R FROM doc(%q)[EVERY]/restaurant R`, ref.gen.URL((r+i)%slots))
				res, err := db.QueryContext(store.WithEpoch(context.Background(), pin), q)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				answers = append(answers, answer{pin, q, rows(res)})
				mu.Unlock()
			}
		}(r)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if len(answers) == 0 {
		t.Fatal("no pinned query ran while the writers did")
	}
	for _, a := range answers {
		res, err := db.QueryContext(store.WithEpoch(context.Background(), a.pin), a.q)
		if err != nil || rows(res) != a.out {
			t.Fatalf("pin %d: %s answered differently while racing the writers (%v)", a.pin, a.q, err)
		}
	}
}
