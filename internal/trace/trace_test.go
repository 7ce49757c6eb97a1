package trace

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"secpb/internal/xrand"
)

func randomOps(seed uint64, n int) []Op {
	r := xrand.New(seed)
	ops := make([]Op, n)
	for i := range ops {
		switch r.Intn(10) {
		case 0:
			ops[i] = Op{Kind: Fence}
		case 1, 2, 3:
			size := uint8(1) << r.Intn(4)
			ops[i] = Op{
				Kind: Load,
				Addr: (r.Uint64() % (1 << 30)) &^ (uint64(size) - 1),
				Size: size,
				Gap:  uint32(r.Intn(100)),
			}
		default:
			size := uint8(1) << r.Intn(4)
			ops[i] = Op{
				Kind: Store,
				Addr: (r.Uint64() % (1 << 30)) &^ (uint64(size) - 1),
				Size: size,
				Data: r.Uint64() >> (64 - 8*uint(size)),
				Gap:  uint32(r.Intn(100)),
			}
		}
	}
	return ops
}

// TestEmptyTrace: a header-only stream opens as a source that yields no
// batch and ends cleanly; only a stream with no header at all is the
// typed empty-trace error.
func TestEmptyTrace(t *testing.T) {
	fs, err := NewFileBatchSource(bytes.NewReader(SPB2Header()))
	if err != nil {
		t.Fatal(err)
	}
	if fs.NextBatch(NewBatch(0)) {
		t.Error("header-only trace yielded a batch")
	}
	if err := fs.Err(); err != nil {
		t.Errorf("Err = %v after a clean end", err)
	}
	var ee *EmptyTraceError
	if _, err := NewFileBatchSource(bytes.NewReader(nil)); !errors.As(err, &ee) {
		t.Errorf("zero-byte trace: %v, want *EmptyTraceError", err)
	}
}

func TestTextRoundTrip(t *testing.T) {
	ops := randomOps(7, 500)
	for _, op := range ops {
		got, err := ParseText(FormatText(op))
		if err != nil {
			t.Fatalf("%q: %v", FormatText(op), err)
		}
		if got != op {
			t.Fatalf("text round trip: got %+v want %+v", got, op)
		}
	}
}

func TestParseTextErrors(t *testing.T) {
	bad := []string{
		"", "bogus 0x1 2", "st 0x1000 8", "ld 0x1000", "st zz 8 0x0 gap=1",
		"ld 0x1000 3 gap=x", "st 0x1001 8 0x0 gap=0",
	}
	for _, line := range bad {
		if _, err := ParseText(line); err == nil {
			t.Errorf("ParseText(%q) succeeded", line)
		}
	}
}

func TestOpInstructions(t *testing.T) {
	op := Op{Kind: Load, Addr: 0, Size: 8, Gap: 9}
	if op.Instructions() != 10 {
		t.Errorf("Instructions = %d, want 10", op.Instructions())
	}
}

func TestValidateProperty(t *testing.T) {
	// Every op produced by the random generator must validate.
	check := func(seed uint64) bool {
		for _, op := range randomOps(seed, 50) {
			if err := op.Validate(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	if Load.String() != "ld" || Store.String() != "st" || Fence.String() != "fence" {
		t.Error("kind mnemonics wrong")
	}
}
