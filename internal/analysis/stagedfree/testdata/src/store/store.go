// Fixture for the stagedfree analyzer. The path segment "store" puts
// this package inside the gate. The shapes mirror the real commit path:
// stage writes and frees in a batch, commit, publish, release — with the
// error paths required to release too (a no-op on a batch that did not
// commit).
package store

import "errors"

type Ref struct{ Start int64 }

type Batch struct{}

func (*Batch) Write(data []byte) Ref { return Ref{} }
func (*Batch) Free(ref Ref)          {}
func (*Batch) Commit() error         { return nil }
func (*Batch) Release()              {}

type pages struct{}

func (pages) Begin() *Batch { return &Batch{} }

// heap is not a batch: its Free is outside the obligation.
type heap struct{}

func (heap) Free(ref Ref) {}

var errBoom = errors.New("boom")

// commitDeferred releases through a defer next to Begin, which covers
// every return: the idiomatic shape.
func commitDeferred(p pages, old Ref, fail bool) error {
	b := p.Begin()
	defer b.Release()
	b.Write(nil)
	b.Free(old)
	if err := b.Commit(); err != nil {
		return err
	}
	if fail {
		return errBoom
	}
	return nil
}

// commitExplicit releases on both the error and success paths.
func commitExplicit(p pages, old Ref) error {
	b := p.Begin()
	b.Free(old)
	if err := b.Commit(); err != nil {
		b.Release()
		return err
	}
	b.Release()
	return nil
}

// commitErrLeak forgets the error path.
func commitErrLeak(p pages, old Ref, fail bool) error {
	b := p.Begin()
	b.Free(old) // want "Batch.Free not released on all paths"
	if err := b.Commit(); err != nil {
		return err
	}
	if fail {
		return errBoom
	}
	b.Release()
	return nil
}

// commitNoRelease never discharges at all.
func commitNoRelease(p pages, old Ref) error {
	b := p.Begin()
	b.Free(old) // want "Batch.Free not released on all paths"
	return b.Commit()
}

// commitNoFree writes but frees nothing: there is nothing to release.
func commitNoFree(p pages) error {
	b := p.Begin()
	b.Write(nil)
	return b.Commit()
}

// commitPanic is clean: panic paths are exempt (replay rebuilds the
// extent table), and the surviving path releases.
func commitPanic(p pages, old Ref, fail bool) {
	b := p.Begin()
	b.Free(old)
	if fail {
		panic("corrupt")
	}
	_ = b.Commit()
	b.Release()
}

// wrongBatch releases a different batch than the one that freed: the
// obligation is keyed by the batch, so this is still a leak.
func wrongBatch(p pages, old Ref) {
	b, other := p.Begin(), p.Begin()
	b.Free(old) // want "Batch.Free not released on all paths"
	_ = b.Commit()
	other.Release()
}

// commitLoop commits and releases one batch per iteration: clean.
func commitLoop(p pages, olds []Ref) {
	for _, old := range olds {
		b := p.Begin()
		b.Free(old)
		_ = b.Commit()
		b.Release()
	}
}

// heapFree frees through a type that is not a batch: no obligation.
func heapFree(h heap, old Ref) {
	h.Free(old)
}
