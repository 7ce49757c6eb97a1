package trace

import "testing"

// FuzzParseText: the text parser must never panic and must round-trip
// whatever it accepts.
func FuzzParseText(f *testing.F) {
	f.Add("st 0x1000 8 0xdeadbeef gap=3")
	f.Add("ld 0x1048 4 gap=0")
	f.Add("fence")
	f.Add("st 0x0 1 0xff gap=4294967295")
	f.Add("")
	f.Add("st zz")
	f.Fuzz(func(t *testing.T, line string) {
		op, err := ParseText(line)
		if err != nil {
			return
		}
		// Anything accepted must be valid and must survive a format/
		// parse round trip.
		if verr := op.Validate(); verr != nil {
			t.Fatalf("parsed invalid op %+v from %q: %v", op, line, verr)
		}
		again, err := ParseText(FormatText(op))
		if err != nil {
			t.Fatalf("reparse of %q failed: %v", FormatText(op), err)
		}
		if again != op {
			t.Fatalf("round trip changed op: %+v -> %+v", op, again)
		}
	})
}
