package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"secpb/internal/trace"
)

// cli runs the command in-process and returns (exit code, stdout, stderr).
func cli(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestGenConvertDumpRoundTrip: convert re-segments a trace without
// touching its ops, so converting a trace generated at one -segops to
// another reproduces, byte for byte, the trace generated at that
// -segops directly, and every segmentation dumps to the same text.
func TestGenConvertDumpRoundTrip(t *testing.T) {
	dir := t.TempDir()
	small := filepath.Join(dir, "t256.spb2")
	direct := filepath.Join(dir, "t.spb2")
	conv := filepath.Join(dir, "conv.spb2")
	for _, args := range [][]string{
		{"gen", "-bench", "kvstore", "-ops", "20000", "-seed", "7", "-segops", "256", "-o", small},
		{"gen", "-bench", "kvstore", "-ops", "20000", "-seed", "7", "-o", direct},
		{"convert", "-i", small, "-o", conv},
	} {
		if code, _, errs := cli(t, args...); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, errs)
		}
	}
	want, err := os.ReadFile(direct)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(conv)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("convert(-segops 256) differs from direct gen (%d vs %d bytes)", len(got), len(want))
	}

	var dumps []string
	for _, f := range []string{small, direct} {
		code, out, errs := cli(t, "dump", "-i", f)
		if code != 0 {
			t.Fatalf("dump %s: exit %d: %s", f, code, errs)
		}
		dumps = append(dumps, out)
	}
	if dumps[0] != dumps[1] {
		t.Error("dumps of the two segmentations differ")
	}
	if n := strings.Count(dumps[0], "\n"); n != 20000 {
		t.Errorf("dump has %d lines, want 20000", n)
	}
	if _, head, _ := cli(t, "dump", "-n", "300", "-i", small); head != strings.Join(strings.SplitAfter(dumps[0], "\n")[:300], "") {
		t.Error("dump -n 300 is not the first 300 lines of the full dump")
	}
}

func TestStatReportsFormat(t *testing.T) {
	dir := t.TempDir()
	f := filepath.Join(dir, "t.spb2")
	if code, _, errs := cli(t, "gen", "-bench", "wal", "-ops", "5000", "-o", f); code != 0 {
		t.Fatalf("gen: %s", errs)
	}
	code, out, errs := cli(t, "stat", "-i", f)
	if code != 0 {
		t.Fatalf("stat: exit %d: %s", code, errs)
	}
	for _, want := range []string{"format       spb2", "ops          5000", "fences"} {
		if !strings.Contains(out, want) {
			t.Errorf("stat output missing %q:\n%s", want, out)
		}
	}
}

func TestAsmDumpRoundTrip(t *testing.T) {
	dir := t.TempDir()
	f := filepath.Join(dir, "t.spb2")
	if code, _, errs := cli(t, "gen", "-bench", "gcc", "-ops", "300", "-o", f); code != 0 {
		t.Fatalf("gen: %s", errs)
	}
	_, text, _ := cli(t, "dump", "-i", f)

	src := filepath.Join(dir, "t.txt")
	if err := os.WriteFile(src, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	back := filepath.Join(dir, "back.spb2")
	if code, _, errs := cli(t, "asm", "-i", src, "-o", back); code != 0 {
		t.Fatalf("asm: exit %d: %s", code, errs)
	}
	_, text2, _ := cli(t, "dump", "-i", back)
	if text != text2 {
		t.Error("asm→dump round trip altered the trace")
	}
}

func TestReorderAcceptsSPB2(t *testing.T) {
	dir := t.TempDir()
	f := filepath.Join(dir, "t.spb2")
	out := filepath.Join(dir, "r.spb2")
	if code, _, errs := cli(t, "gen", "-bench", "kvstore", "-ops", "2000", "-o", f); code != 0 {
		t.Fatalf("gen: %s", errs)
	}
	if code, _, errs := cli(t, "reorder", "-i", f, "-o", out, "-window", "8"); code != 0 {
		t.Fatalf("reorder: exit %d: %s", code, errs)
	}
	code, stat, errs := cli(t, "stat", "-i", out)
	if code != 0 {
		t.Fatalf("stat: exit %d: %s", code, errs)
	}
	if !strings.Contains(stat, "ops          2000") {
		t.Errorf("reordered trace lost ops:\n%s", stat)
	}
}

func TestDumpRejectsCorruptTrace(t *testing.T) {
	dir := t.TempDir()
	f := filepath.Join(dir, "t.spb2")
	if code, _, errs := cli(t, "gen", "-bench", "kvstore", "-ops", "2000", "-o", f); code != 0 {
		t.Fatalf("gen: %s", errs)
	}
	raw, err := os.ReadFile(f)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(f, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errs := cli(t, "dump", "-i", f)
	if code == 0 {
		t.Fatal("dump decoded a corrupted trace without error")
	}
	if !strings.Contains(errs, "corrupt") {
		t.Errorf("stderr does not name the corruption: %s", errs)
	}
}

// A zero-op input (empty file, or header-only SPB2) must fail convert
// with the typed empty-trace error — not silently emit a stub output
// that the next tool in a pipeline would mistake for a real trace.
func TestConvertRejectsEmptyInput(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.spb2")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	headerOnly := filepath.Join(dir, "header.spb2")
	if err := os.WriteFile(headerOnly, trace.SPB2Header(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, in := range []string{empty, headerOnly} {
		out := filepath.Join(dir, "out.spb2")
		code, _, errs := cli(t, "convert", "-i", in, "-o", out)
		if code == 0 {
			t.Fatalf("convert %s: succeeded on a zero-op input", in)
		}
		if !strings.Contains(errs, "empty trace") {
			t.Errorf("convert %s: stderr does not name the typed empty-trace error: %s", in, errs)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("convert %s: left a stub output behind", in)
		}
	}
}

// split must produce one standalone SPB2 file per sealed segment, and
// concatenating their frame portions must reproduce the original trace.
func TestSplitProducesStandaloneSegments(t *testing.T) {
	dir := t.TempDir()
	f := filepath.Join(dir, "t.spb2")
	if code, _, errs := cli(t, "gen", "-bench", "gcc", "-ops", "1000", "-segops", "256", "-o", f); code != 0 {
		t.Fatalf("gen: %s", errs)
	}
	segDir := filepath.Join(dir, "segs")
	if code, _, errs := cli(t, "split", "-i", f, "-d", segDir); code != 0 {
		t.Fatalf("split: exit %d: %s", code, errs)
	}
	names, err := filepath.Glob(filepath.Join(segDir, "seg-*.spb2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 4 { // 1000 ops at 256/segment
		t.Fatalf("split produced %d files, want 4: %v", len(names), names)
	}
	// Each piece is a decodable stream on its own, and splicing the
	// frames back onto one header reproduces the original bytes.
	rebuilt := trace.SPB2Header()
	for _, name := range names {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if code, _, errs := cli(t, "stat", "-i", name); code != 0 {
			t.Fatalf("stat %s: %s", name, errs)
		}
		rebuilt = append(rebuilt, raw[trace.SPB2HeaderLen:]...)
	}
	orig, err := os.ReadFile(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rebuilt, orig) {
		t.Error("reassembled segments differ from the original trace")
	}
}

// run over a recorded trace must emit exactly the canonical result
// bytes the service produces for a streamed session of the same spec —
// the byte-diff contract the ci smoke gate depends on.
func TestRunEmitsCanonicalResult(t *testing.T) {
	dir := t.TempDir()
	f := filepath.Join(dir, "t.spb2")
	if code, _, errs := cli(t, "gen", "-bench", "gcc", "-ops", "2000", "-seed", "9", "-o", f); code != 0 {
		t.Fatalf("gen: %s", errs)
	}
	code, out, errs := cli(t, "run", "-i", f, "-scheme", "cobcm", "-bench", "gcc", "-seed", "9")
	if code != 0 {
		t.Fatalf("run: exit %d: %s", code, errs)
	}
	if !strings.HasSuffix(out, "\n") || !strings.Contains(out, `"scheme"`) {
		t.Fatalf("run output is not the canonical result encoding: %q", out)
	}
	// Deterministic: a second run is byte-identical.
	_, out2, _ := cli(t, "run", "-i", f, "-scheme", "cobcm", "-bench", "gcc", "-seed", "9")
	if out != out2 {
		t.Error("run is not deterministic across invocations")
	}
	// And it must refuse a bad scheme with a clean error.
	if code, _, _ := cli(t, "run", "-i", f, "-scheme", "no-such-scheme"); code == 0 {
		t.Error("run accepted an unknown scheme")
	}
}

func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
		want string // substring of stderr
	}{
		{"no args", nil, 2, "usage"},
		{"unknown subcommand", []string{"frobnicate"}, 2, "unknown subcommand"},
		{"gen zero ops", []string{"gen", "-ops", "0"}, 1, "-ops must be positive"},
		{"gen unknown bench", []string{"gen", "-bench", "no-such-bench"}, 1, "no-such-bench"},
		{"gen bad format", []string{"gen", "-bench", "gcc", "-format", "spb2"}, 2, "flag provided but not defined: -format"},
		{"gen negative segops", []string{"gen", "-segops", "-1"}, 1, "-segops must be non-negative"},
		{"convert bad format", []string{"convert", "-i", "x", "-format", "spb2"}, 2, "flag provided but not defined: -format"},
		{"dump negative n", []string{"dump", "-n", "-5"}, 1, "-n must be non-negative"},
		{"reorder zero window", []string{"reorder", "-window", "0"}, 1, "-window must be at least 1"},
		{"reorder negative window", []string{"reorder", "-window", "-3"}, 1, "-window must be at least 1"},
		{"gen bad flag", []string{"gen", "-nonsense"}, 2, ""},
		{"dump missing file", []string{"dump", "-i", "/no/such/file.spb2"}, 1, "no such file"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, errs := cli(t, tc.args...)
			if code != tc.code {
				t.Errorf("exit %d, want %d (stderr: %s)", code, tc.code, errs)
			}
			if tc.want != "" && !strings.Contains(errs, tc.want) {
				t.Errorf("stderr %q missing %q", errs, tc.want)
			}
		})
	}
}
