// Command secpb-trace works with SPB2 memory-operation traces: generate
// a synthetic benchmark trace, re-segment a trace, dump a trace as
// text, assemble text back into SPB2, report statistics, apply the
// relaxed-consistency reordering transform, split a trace into
// per-segment upload bodies for the streaming service, or run a trace
// through the simulator and emit the canonical result JSON.
//
// gen, convert, dump, and stat stream batch-by-batch in constant
// memory, so they handle traces far larger than RAM.
//
// Usage:
//
//	secpb-trace gen -bench gamess -ops 100000 -o gamess.spb2
//	secpb-trace convert -i gamess.spb2 -segops 256 -o gamess-256.spb2
//	secpb-trace dump -i gamess.spb2 | head
//	secpb-trace asm -i trace.txt -o trace.spb2
//	secpb-trace stat -i gamess.spb2
//	secpb-trace reorder -i trace.spb2 -o relaxed.spb2 -window 16
//	secpb-trace split -i gamess.spb2 -d segs/            # seg-00000.spb2 ...
//	secpb-trace run -i gamess.spb2 -scheme cobcm -bench gamess -o result.json
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"secpb/internal/addr"
	"secpb/internal/engine"
	"secpb/internal/service"
	"secpb/internal/trace"
	"secpb/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const usage = "usage: secpb-trace gen|convert|dump|asm|stat|reorder|split|run [flags]"

// run is the testable entry point: it never calls os.Exit and writes
// only to the given streams.
func run(argv []string, stdout, stderr io.Writer) int {
	if len(argv) < 1 {
		fmt.Fprintln(stderr, "secpb-trace: "+usage)
		return 2
	}
	cmd, args := argv[0], argv[1:]
	var err error
	switch cmd {
	case "gen":
		err = cmdGen(args, stdout, stderr)
	case "convert":
		err = cmdConvert(args, stdout, stderr)
	case "dump":
		err = cmdDump(args, stdout, stderr)
	case "asm":
		err = cmdAsm(args, stdout, stderr)
	case "stat":
		err = cmdStat(args, stdout, stderr)
	case "reorder":
		err = cmdReorder(args, stdout, stderr)
	case "split":
		err = cmdSplit(args, stdout, stderr)
	case "run":
		err = cmdRun(args, stdout, stderr)
	default:
		fmt.Fprintf(stderr, "secpb-trace: unknown subcommand %q\n%s\n", cmd, usage)
		return 2
	}
	var uerr usageError
	if errors.As(err, &uerr) {
		if uerr.err != flag.ErrHelp {
			fmt.Fprintf(stderr, "secpb-trace: %s: %v\n", cmd, uerr.err)
		}
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "secpb-trace: %s: %v\n", cmd, err)
		return 1
	}
	return 0
}

// usageError marks malformed command lines (bad flag syntax, -h) so
// run can exit 2 instead of 1.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }

func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parseFlags wraps flag-syntax failures as usage errors.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	return nil
}

func openIn(path string) (io.ReadCloser, error) {
	if path == "" || path == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(path)
}

func createOut(path string, stdout io.Writer) (io.WriteCloser, error) {
	if path == "" || path == "-" {
		return nopWriteCloser{stdout}, nil
	}
	return os.Create(path)
}

type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }

func closeOut(out io.WriteCloser) error {
	if _, ok := out.(nopWriteCloser); ok {
		return nil
	}
	return out.Close()
}

func cmdGen(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("gen", stderr)
	bench := fs.String("bench", "gcc", "benchmark profile (SPEC proxy or zoo name)")
	ops := fs.Uint64("ops", 100_000, "operations to generate")
	seed := fs.Uint64("seed", 1, "workload seed")
	out := fs.String("o", "-", "output file (SPB2 trace)")
	segOps := fs.Int("segops", 0, "ops per segment (0 = default)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *ops == 0 {
		return fmt.Errorf("-ops must be positive")
	}
	if *segOps < 0 {
		return fmt.Errorf("-segops must be non-negative")
	}
	prof, err := workload.ByName(*bench)
	if err != nil {
		return err
	}
	gen, err := workload.NewGenerator(prof, *seed, *ops)
	if err != nil {
		return err
	}
	n, err := writeTrace(*out, stdout, *segOps, gen)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %d ops\n", n)
	return nil
}

// writeTrace encodes every op of src as an SPB2 stream at path ("-" for
// stdout) with segOps ops per segment. A source with no ops is refused
// with a *trace.EmptyTraceError, and the stub output is removed: a
// header-only file would look like a real trace to the next tool in a
// pipeline.
func writeTrace(path string, stdout io.Writer, segOps int, src trace.BatchSource) (uint64, error) {
	dst, err := createOut(path, stdout)
	if err != nil {
		return 0, err
	}
	w := trace.NewSegWriter(dst, segOps)
	// A filling source appends into buf; a view source (a recorded
	// trace, a cursor) only repoints the copy's columns.
	buf := trace.NewBatch(trace.DefaultBatchCap)
	for b := *buf; src.NextBatch(&b); b = *buf {
		if err := w.WriteBatch(&b); err != nil {
			closeOut(dst)
			return 0, err
		}
	}
	if fs, ok := src.(*trace.FileBatchSource); ok && fs.Err() != nil {
		closeOut(dst)
		return 0, fs.Err()
	}
	if w.Count() == 0 {
		closeOut(dst)
		if path != "" && path != "-" {
			os.Remove(path)
		}
		return 0, &trace.EmptyTraceError{Detail: "zero operations to write"}
	}
	if err := w.Flush(); err != nil {
		closeOut(dst)
		return 0, err
	}
	return w.Count(), closeOut(dst)
}

// openTrace opens an SPB2 trace ("-" for stdin) as a batched source.
func openTrace(path string) (*trace.FileBatchSource, error) {
	src, err := openIn(path)
	if err != nil {
		return nil, err
	}
	fsrc, err := trace.NewFileBatchSource(src)
	if err != nil {
		src.Close()
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return fsrc, nil
}

// cmdConvert re-segments an SPB2 trace: the same ops, sealed into
// segments of -segops ops.
func cmdConvert(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("convert", stderr)
	in := fs.String("i", "-", "input SPB2 trace")
	out := fs.String("o", "-", "output SPB2 trace")
	segOps := fs.Int("segops", 0, "ops per output segment (0 = default)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *segOps < 0 {
		return fmt.Errorf("-segops must be non-negative")
	}
	src, err := openTrace(*in)
	if err != nil {
		return err
	}
	defer src.Close()
	n, err := writeTrace(*out, stdout, *segOps, src)
	if err != nil {
		return fmt.Errorf("%s: %w", *in, err)
	}
	fmt.Fprintf(stderr, "converted %d ops\n", n)
	return nil
}

func cmdDump(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("dump", stderr)
	in := fs.String("i", "-", "input SPB2 trace")
	limit := fs.Int("n", 0, "dump at most n ops (0 = all)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *limit < 0 {
		return fmt.Errorf("-n must be non-negative")
	}
	src, err := openTrace(*in)
	if err != nil {
		return err
	}
	defer src.Close()
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	n := 0
	var b trace.Batch
	for src.NextBatch(&b) {
		for i := 0; i < b.Len(); i++ {
			if n == *limit && n > 0 {
				return nil
			}
			fmt.Fprintln(w, trace.FormatText(b.Op(i)))
			n++
		}
	}
	if err := src.Err(); err != nil {
		return fmt.Errorf("reading %s: %w", *in, err)
	}
	return nil
}

func cmdAsm(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("asm", stderr)
	in := fs.String("i", "-", "input text trace")
	out := fs.String("o", "-", "output SPB2 trace")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	src, err := openIn(*in)
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := createOut(*out, stdout)
	if err != nil {
		return err
	}
	w := trace.NewSegWriter(dst, 0)
	sc := bufio.NewScanner(src)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		op, err := trace.ParseText(sc.Text())
		if err != nil {
			closeOut(dst)
			return fmt.Errorf("line %d: %w", line, err)
		}
		if err := w.Write(op); err != nil {
			closeOut(dst)
			return err
		}
	}
	if err := sc.Err(); err != nil {
		closeOut(dst)
		return err
	}
	if err := w.Flush(); err != nil {
		closeOut(dst)
		return err
	}
	if err := closeOut(dst); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "assembled %d ops\n", w.Count())
	return nil
}

func cmdStat(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("stat", stderr)
	in := fs.String("i", "-", "input SPB2 trace")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	src, err := openTrace(*in)
	if err != nil {
		return err
	}
	defer src.Close()
	var n, loads, stores, fences, instrs uint64
	blocks := map[addr.Block]uint64{}
	var b trace.Batch
	for src.NextBatch(&b) {
		for i := 0; i < b.Len(); i++ {
			op := b.Op(i)
			n++
			instrs += op.Instructions()
			switch op.Kind {
			case trace.Load:
				loads++
			case trace.Store:
				stores++
				blocks[addr.BlockOf(op.Addr)]++
			case trace.Fence:
				fences++
			}
		}
	}
	if err := src.Err(); err != nil {
		return fmt.Errorf("reading %s: %w", *in, err)
	}
	fmt.Fprintf(stdout, "format       spb2\n")
	fmt.Fprintf(stdout, "ops          %d\n", n)
	fmt.Fprintf(stdout, "instructions %d\n", instrs)
	fmt.Fprintf(stdout, "loads        %d\n", loads)
	fmt.Fprintf(stdout, "stores       %d\n", stores)
	fmt.Fprintf(stdout, "fences       %d\n", fences)
	if instrs > 0 {
		fmt.Fprintf(stdout, "PPTI         %.1f\n", float64(stores)/float64(instrs)*1000)
	}
	fmt.Fprintf(stdout, "store blocks %d\n", len(blocks))
	if len(blocks) > 0 {
		fmt.Fprintf(stdout, "stores/block %.2f\n", float64(stores)/float64(len(blocks)))
	}
	return nil
}

func cmdReorder(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("reorder", stderr)
	in := fs.String("i", "-", "input SPB2 trace")
	out := fs.String("o", "-", "output SPB2 trace")
	window := fs.Int("window", 16, "reorder window (stores)")
	seed := fs.Uint64("seed", 1, "reorder seed")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *window < 1 {
		return fmt.Errorf("-window must be at least 1")
	}
	src, err := openIn(*in)
	if err != nil {
		return err
	}
	defer src.Close()
	ops, err := trace.NewSegReader(src).ReadAll()
	if err != nil {
		return fmt.Errorf("reading %s: %w", *in, err)
	}
	_, err = writeTrace(*out, stdout, 0, trace.NewSliceBatchSource(trace.Reorder(ops, *window, *seed)))
	return err
}

// cmdSplit explodes an SPB2 trace into one file per sealed segment,
// each a complete standalone SPB2 stream (header + frame) — exactly
// the upload bodies PUT /v1/sessions/{name}/segments/{n} expects, in
// ordinal order.
func cmdSplit(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("split", stderr)
	in := fs.String("i", "-", "input SPB2 trace")
	dir := fs.String("d", ".", "output directory for segment files")
	prefix := fs.String("prefix", "seg", "segment file name prefix")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	src, err := openIn(*in)
	if err != nil {
		return err
	}
	defer src.Close()
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	header := trace.SPB2Header()
	n, err := trace.ScanSegments(src, func(seg int, frame []byte) error {
		path := filepath.Join(*dir, fmt.Sprintf("%s-%05d.spb2", *prefix, seg))
		body := append(append([]byte{}, header...), frame...)
		return os.WriteFile(path, body, 0o644)
	})
	if err != nil {
		return fmt.Errorf("reading %s: %w", *in, err)
	}
	fmt.Fprintf(stderr, "split %d segments into %s\n", n, *dir)
	return nil
}

// cmdRun replays a recorded trace through the full simulator and emits
// the canonical result encoding — the same bytes GET
// /v1/sessions/{name}/result returns for a streamed session of the
// same trace, which is what makes the service smoke gate a byte-diff.
func cmdRun(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("run", stderr)
	in := fs.String("i", "-", "input SPB2 trace")
	out := fs.String("o", "-", "output result JSON")
	scheme := fs.String("scheme", "cobcm", "protection scheme")
	bench := fs.String("bench", "gcc", "workload profile the trace was generated from")
	seed := fs.Uint64("seed", 1, "config seed (must match the session spec)")
	entries := fs.Int("secpb", 0, "SecPB entries (0 = config default)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	spec := service.Spec{Name: "cli", Scheme: *scheme, Bench: *bench, Seed: *seed, Entries: *entries}
	if err := spec.Validate(); err != nil {
		return err
	}
	cfg, prof, err := spec.Build()
	if err != nil {
		return err
	}
	src, err := openTrace(*in)
	if err != nil {
		return err
	}
	defer src.Close()
	res, err := engine.RunRecorded(cfg, prof, src)
	if err != nil {
		return err
	}
	dst, err := createOut(*out, stdout)
	if err != nil {
		return err
	}
	if _, err := dst.Write(service.EncodeResult(res)); err != nil {
		closeOut(dst)
		return err
	}
	return closeOut(dst)
}
