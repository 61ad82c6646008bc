// Package pagestore is the fsyncpoint fixture for the storage side; its
// path segment matches the real page-store package so the analyzer gate
// admits it. Inside the page store the barrier may be wired into the
// batcher as a method value and delegated by backend decorators; any
// other direct call is a finding.
package pagestore

// FixtureBackend mimics the pluggable I/O surface.
type FixtureBackend interface {
	Commit() error
	Sync() error
}

// Committer mimics the group-commit batcher.
type Committer struct {
	flush func() error
}

// NewCommitter records the flush function — the batch's durability point.
func NewCommitter(flush func() error) *Committer {
	return &Committer{flush: flush}
}

// Store mirrors the real page store: a backend and its committer.
type Store struct {
	backend FixtureBackend
	group   *Committer
}

// NewStore wires the backend barrier into the batcher as a method value —
// the intended flush wiring, not a call, so it is allowed.
func NewStore(b FixtureBackend) *Store {
	return &Store{backend: b, group: NewCommitter(b.Commit)}
}

// Commit forks a synchronous barrier past the committer when none is
// wired; the direct call is a finding.
func (s *Store) Commit() error {
	if s.group != nil {
		return s.group.flush()
	}
	return s.backend.Commit() // want "FixtureBackend.Commit called outside the batcher flush path"
}

func (s *Store) syncDirect() error {
	return s.backend.Sync() // want "FixtureBackend.Sync called outside the batcher flush path"
}

// Wrapper is a backend decorator (it implements FixtureBackend itself);
// forwarding the barrier to the inner backend is the legitimate shape.
type Wrapper struct {
	inner FixtureBackend
}

func (w *Wrapper) Commit() error { return w.inner.Commit() }
func (w *Wrapper) Sync() error   { return w.inner.Sync() }
