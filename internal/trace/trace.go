// Package trace defines the memory-operation stream consumed by the
// simulator, plus the SPB2 binary format and a text codec so traces can
// be stored, inspected, and replayed. The simulator is trace-driven: a
// workload generator (internal/workload) or a recorded application
// produces a stream of Ops in columnar batches (BatchSource);
// internal/engine replays them against the modelled hierarchy.
package trace

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Kind is the operation type.
type Kind uint8

const (
	// Load is a data read.
	Load Kind = iota
	// Store is a data write to the persistent region; under strict
	// persistency every store is also a persist.
	Store
	// Fence orders persists in persistency models that require it; with
	// a persistent hierarchy and strict persistency it is a no-op but is
	// kept in the format so relaxed-model traces can be expressed.
	Fence
)

// String returns a short mnemonic.
func (k Kind) String() string {
	switch k {
	case Load:
		return "ld"
	case Store:
		return "st"
	case Fence:
		return "fence"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Op is one memory operation. Gap is the number of non-memory
// instructions the core retires before this operation; it drives the
// timing model's instruction accounting.
type Op struct {
	Kind Kind
	Addr uint64 // byte address
	Size uint8  // access size in bytes (1..8)
	Data uint64 // little-endian store payload (Size bytes significant)
	Gap  uint32 // non-memory instructions preceding this op
}

// Instructions returns the number of instructions this op represents
// (its gap plus itself).
func (o Op) Instructions() uint64 { return uint64(o.Gap) + 1 }

// Validate reports whether the op is well formed.
func (o Op) Validate() error {
	switch o.Kind {
	case Load, Store:
		if o.Size == 0 || o.Size > 8 {
			return fmt.Errorf("trace: invalid access size %d", o.Size)
		}
		if o.Addr&(uint64(o.Size)-1) != 0 && o.Size&(o.Size-1) == 0 {
			return fmt.Errorf("trace: address %#x not aligned to size %d", o.Addr, o.Size)
		}
	case Fence:
		// No operands.
	default:
		return fmt.Errorf("trace: unknown kind %d", o.Kind)
	}
	return nil
}

// FormatText renders one op per line, e.g.:
//
//	st 0x1040 8 0xdeadbeef gap=3
//	ld 0x1048 4 gap=0
//	fence
func FormatText(op Op) string {
	switch op.Kind {
	case Store:
		return fmt.Sprintf("st 0x%x %d 0x%x gap=%d", op.Addr, op.Size, op.Data, op.Gap)
	case Load:
		return fmt.Sprintf("ld 0x%x %d gap=%d", op.Addr, op.Size, op.Gap)
	case Fence:
		return "fence"
	default:
		return fmt.Sprintf("?%d", op.Kind)
	}
}

// ParseText parses the FormatText representation.
func ParseText(line string) (Op, error) {
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) == 0 {
		return Op{}, errors.New("trace: empty line")
	}
	parseHex := func(s string) (uint64, error) {
		return strconv.ParseUint(strings.TrimPrefix(s, "0x"), 16, 64)
	}
	parseGap := func(s string) (uint32, error) {
		v, err := strconv.ParseUint(strings.TrimPrefix(s, "gap="), 10, 32)
		return uint32(v), err
	}
	var op Op
	var err error
	switch fields[0] {
	case "fence":
		return Op{Kind: Fence}, nil
	case "st":
		if len(fields) != 5 {
			return Op{}, fmt.Errorf("trace: store needs 5 fields, got %d", len(fields))
		}
		op.Kind = Store
		if op.Addr, err = parseHex(fields[1]); err != nil {
			return Op{}, err
		}
		size, err := strconv.ParseUint(fields[2], 10, 8)
		if err != nil {
			return Op{}, err
		}
		op.Size = uint8(size)
		if op.Data, err = parseHex(fields[3]); err != nil {
			return Op{}, err
		}
		if op.Gap, err = parseGap(fields[4]); err != nil {
			return Op{}, err
		}
	case "ld":
		if len(fields) != 4 {
			return Op{}, fmt.Errorf("trace: load needs 4 fields, got %d", len(fields))
		}
		op.Kind = Load
		if op.Addr, err = parseHex(fields[1]); err != nil {
			return Op{}, err
		}
		size, err := strconv.ParseUint(fields[2], 10, 8)
		if err != nil {
			return Op{}, err
		}
		op.Size = uint8(size)
		if op.Gap, err = parseGap(fields[3]); err != nil {
			return Op{}, err
		}
	default:
		return Op{}, fmt.Errorf("trace: unknown mnemonic %q", fields[0])
	}
	if err := op.Validate(); err != nil {
		return Op{}, err
	}
	return op, nil
}
