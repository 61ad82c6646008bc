package main

import (
	"fmt"
	"runtime"
	"time"
)

// loop drives one closed-loop client over an op list and keeps what the
// correctness gate needs: the result of every sampled op.
type loop struct {
	ops  []op
	seed int64
	// exec runs op-list entry i and returns its canonical result.
	exec func(i int, o op) (string, error)
	// once stops at the end of the list; otherwise the list is cycled.
	once bool
	pos  int // ops executed so far, over all runs

	samples   []sample
	got       map[int]string // sampled op index -> first result seen
	attempted int
	failed    int
	problems  []string // the first few failures, for the report
	elapsed   time.Duration
}

func (l *loop) fail(format string, args ...any) {
	l.failed++
	if len(l.problems) < 5 {
		l.problems = append(l.problems, fmt.Sprintf(format, args...))
	}
}

// run executes ops, from where the previous run stopped, until the window
// has passed, or until maxOps ops when maxOps > 0. An op that fails, or
// that returns something else than the same list entry returned before,
// counts as failed.
func (l *loop) run(window time.Duration, maxOps int) {
	if l.got == nil {
		l.got = make(map[int]string)
	}
	start := time.Now()
	for n := 0; ; n++ {
		if maxOps > 0 && n >= maxOps || l.once && l.pos >= len(l.ops) {
			break
		}
		began := time.Since(start)
		if maxOps == 0 && began >= window {
			break
		}
		i := l.pos % len(l.ops)
		l.pos++
		out, err := l.exec(i, l.ops[i])
		end := time.Since(start)
		l.attempted++
		if err != nil {
			l.fail("op %d: %v", i, err)
			continue
		}
		l.samples = append(l.samples, sample{end: end, lat: end - began})
		if sampled(l.seed, i) {
			if prev, seen := l.got[i]; !seen {
				l.got[i] = out
			} else if prev != out {
				l.fail("op %d: result changed between executions", i)
			}
		}
	}
	l.elapsed = time.Since(start)
}

// timed is the untraced run's measurement: an untimed tenth of the window
// first, so caches fill and lazy set-up finishes, then a collection, so
// every run starts the clock with the same heap, then the timed window.
func (l *loop) timed(window time.Duration) {
	l.run(window/10, 0)
	l.samples = nil
	runtime.GC()
	l.run(window, 0)
}

// verify replays every sampled op that ran on a reference and compares the
// canonical results byte for byte. Equal ops (the hot workloads draw few
// distinct ones) are replayed once.
func (l *loop) verify(what string, ref func(o op) (string, error)) {
	wants := make(map[op]string)
	for i, got := range l.got {
		o := l.ops[i]
		want, seen := wants[o]
		if !seen {
			var err error
			if want, err = ref(o); err != nil {
				l.fail("op %d on %s: %v", i, what, err)
				continue
			}
			wants[o] = want
		}
		if want != got {
			l.fail("op %d differs from %s", i, what)
		}
	}
}

// repeatSetup sets up n times, closing all but the last state, and returns
// that state with the median set-up time.
func repeatSetup[S any](n int, setup func() (S, error), closeState func(S)) (S, float64, error) {
	var st S
	var secs []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			closeState(st)
		}
		t0 := time.Now()
		var err error
		if st, err = setup(); err != nil {
			return st, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return st, median(secs), nil
}
