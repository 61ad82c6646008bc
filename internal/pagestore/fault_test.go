package pagestore

import (
	"bytes"
	"errors"
	"testing"
)

// faultStore builds a Store over an injected in-memory backend with the
// buffer pool disabled, so every Read reaches the backend and rule offsets
// are stable.
func faultStore(t *testing.T, seed int64) (*Store, *Injector) {
	t.Helper()
	inj := NewInjector(NewMemory(), seed)
	return New(Config{BufferPages: 0, Backend: inj}), inj
}

func TestInjectorTransientThenSuccess(t *testing.T) {
	s, inj := faultStore(t, 1)
	ref := mustWrite(t, s, 0, []byte("survives transient faults"))
	inj.Script(FaultRule{Op: FaultRead, Kind: FaultTransient, At: 1, Count: 2})

	_, err := s.Read(ref)
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("read #1 = %v, want ErrTransient", err)
	}
	_, err = s.Read(ref)
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("read #2 = %v, want ErrTransient", err)
	}
	data, err := s.Read(ref)
	if err != nil {
		t.Fatalf("read #3 after fault window: %v", err)
	}
	if string(data) != "survives transient faults" {
		t.Fatalf("read #3 = %q", data)
	}
	if inj.Fired() != 2 {
		t.Fatalf("Fired = %d, want 2", inj.Fired())
	}
}

func TestInjectorPermanentIsNotTransient(t *testing.T) {
	s, inj := faultStore(t, 1)
	ref := mustWrite(t, s, 0, []byte("payload"))
	inj.Script(FaultRule{Op: FaultRead, Kind: FaultPermanent, At: 1, Count: 1 << 30})

	_, err := s.Read(ref)
	if err == nil {
		t.Fatalf("read under permanent fault succeeded")
	}
	if errors.Is(err, ErrTransient) {
		t.Fatalf("permanent fault wraps ErrTransient: %v", err)
	}
}

func TestInjectorBitFlipSurfacesCorrupt(t *testing.T) {
	s, inj := faultStore(t, 42)
	ref := mustWrite(t, s, 0, []byte("checksummed payload"))
	if err := inj.CorruptExtent(ref.Start); err != nil {
		t.Fatalf("CorruptExtent: %v", err)
	}
	_, err := s.Read(ref)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read of bit-flipped extent = %v, want ErrCorrupt", err)
	}
}

func TestInjectorScheduledBitFlip(t *testing.T) {
	s, inj := faultStore(t, 42)
	ref := mustWrite(t, s, 0, []byte("rot on second read"))
	inj.Script(FaultRule{Op: FaultRead, Kind: FaultBitFlip, At: 2})

	if _, err := s.Read(ref); err != nil {
		t.Fatalf("read #1: %v", err)
	}
	if _, err := s.Read(ref); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read #2 = %v, want ErrCorrupt", err)
	}
	// Bit rot is persistent: later reads keep failing.
	if _, err := s.Read(ref); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read #3 = %v, want ErrCorrupt to persist", err)
	}
}

func TestInjectorTornWrite(t *testing.T) {
	s, inj := faultStore(t, 7)
	inj.Script(FaultRule{Op: FaultWrite, Kind: FaultTornWrite, At: 1})
	ref := mustWrite(t, s, 0, []byte("this write is torn mid-flight"))
	_, err := s.Read(ref)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read of torn write = %v, want ErrCorrupt", err)
	}
}

func TestInjectorDropExtent(t *testing.T) {
	s, inj := faultStore(t, 7)
	ref := mustWrite(t, s, 0, []byte("about to vanish"))
	if err := inj.DropExtent(ref.Start); err != nil {
		t.Fatalf("DropExtent: %v", err)
	}
	if _, err := s.Read(ref); !errors.Is(err, ErrUnknownExtent) {
		t.Fatalf("read of dropped extent = %v, want ErrUnknownExtent", err)
	}
}

func TestInjectorCommitFault(t *testing.T) {
	inj := NewInjector(NewMemory(), 1)
	inj.Script(
		FaultRule{Op: FaultCommit, Kind: FaultTransient, At: 1},
		FaultRule{Op: FaultCommit, Kind: FaultPermanent, At: 2},
	)
	if err := inj.Commit(&Batch{}); !errors.Is(err, ErrTransient) {
		t.Fatalf("commit #1 = %v, want ErrTransient", err)
	}
	if err := inj.Commit(&Batch{}); err == nil || errors.Is(err, ErrTransient) {
		t.Fatalf("commit #2 = %v, want permanent error", err)
	}
	if err := inj.Commit(&Batch{}); err != nil {
		t.Fatalf("commit #3: %v", err)
	}
}

// TestInjectorDeterminism: the same seed and schedule corrupt the same bit.
func TestInjectorDeterminism(t *testing.T) {
	corrupted := func(seed int64) []byte {
		s, inj := faultStore(t, seed)
		ref := mustWrite(t, s, 0, bytes.Repeat([]byte("deterministic"), 8))
		if err := inj.CorruptExtent(ref.Start); err != nil {
			t.Fatalf("CorruptExtent: %v", err)
		}
		ext, err := inj.Get(ref.Start)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		return ext.Data
	}
	a, b := corrupted(99), corrupted(99)
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different corruption:\n%x\n%x", a, b)
	}
	c := corrupted(100)
	if bytes.Equal(a, c) {
		t.Fatalf("different seeds produced identical corruption (possible, but suspicious)")
	}
}

func TestReadZeroRef(t *testing.T) {
	s := New(Config{})
	if _, err := s.Read(Ref{}); !errors.Is(err, ErrZeroRef) {
		t.Fatalf("Read(Ref{}) = %v, want ErrZeroRef", err)
	}
}

// TestFreeZeroRefIsNoOp: freeing the zero Ref must not delete the extent
// that happens to live at page 0.
func TestFreeZeroRefIsNoOp(t *testing.T) {
	s := New(Config{})
	ref := mustWrite(t, s, 0, []byte("lives at page zero"))
	if ref.Start != 0 {
		t.Fatalf("first extent at page %d, want 0", ref.Start)
	}
	mustFree(t, s, Ref{})
	data, err := s.Read(ref)
	if err != nil {
		t.Fatalf("extent at page 0 destroyed by Free(Ref{}): %v", err)
	}
	if string(data) != "lives at page zero" {
		t.Fatalf("Read = %q", data)
	}
}
