package study

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/dnswatch/dnsloc/internal/faultfs"
)

// addSinkSeeds seeds a sink-file fuzz target with two valid JSONL
// sinks, of three records and of one, and the post-crash corruptions
// the torture harness applies to each: bit rot, torn tails and a
// partial record appended after the last complete line.
func addSinkSeeds(f *testing.F, add func(blob []byte)) {
	f.Helper()
	dir := f.TempDir()
	for s, records := range []int{3, 1} {
		var buf bytes.Buffer
		js := NewJSONLSink(&buf)
		for _, e := range retryTestExports(records) {
			if err := js.Append(e); err != nil {
				f.Fatal(err)
			}
		}
		if err := js.Close(); err != nil {
			f.Fatal(err)
		}
		sink := buf.Bytes()
		add(sink)
		n := len(sink)
		for i, corrupt := range []func(path string) error{
			func(p string) error { return faultfs.FlipBit(p, 3) },
			func(p string) error { return faultfs.FlipBit(p, uint64(n)*4) },
			func(p string) error { return faultfs.FlipBit(p, uint64(n-1)*8+3) }, // the final newline
			func(p string) error { return faultfs.TruncateTail(p, 1) },
			func(p string) error { return faultfs.TruncateTail(p, n/2) },
			func(p string) error { return faultfs.AppendGarbage(p, []byte("{\"probe_id\":9,\"coun")) },
			func(p string) error { return faultfs.AppendGarbage(p, []byte("\x00\n\x00")) },
		} {
			p := filepath.Join(dir, fmt.Sprintf("variant-%d-%d", s, i))
			if err := os.WriteFile(p, sink, 0o644); err != nil {
				f.Fatal(err)
			}
			if err := corrupt(p); err != nil {
				f.Fatal(err)
			}
			blob, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			add(blob)
		}
	}
}

// fuzzSinkFile writes blob to a fresh file and returns its path.
func fuzzSinkFile(t *testing.T, blob []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "records")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// checkSinkPrefix asserts that the file at path holds a prefix of in
// that is empty or ends at a newline, and returns it.
func checkSinkPrefix(t *testing.T, path string, in []byte) []byte {
	t.Helper()
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(in, out) {
		t.Fatalf("file %q is not a prefix of the input %q", out, in)
	}
	if len(out) > 0 && out[len(out)-1] != '\n' {
		t.Fatalf("file %q does not end at a line boundary", out)
	}
	return out
}

// FuzzRepairSinkTail drives the torn-tail repair with arbitrary sink
// bytes. It must never panic, must leave exactly the input's complete
// lines on disk, and must report that many rows.
func FuzzRepairSinkTail(f *testing.F) {
	addSinkSeeds(f, func(blob []byte) { f.Add(blob) })
	f.Fuzz(func(t *testing.T, in []byte) {
		path := fuzzSinkFile(t, in)
		rows, err := RepairSinkTail(path)
		if err != nil {
			t.Fatal(err)
		}
		out := checkSinkPrefix(t, path, in)
		if want := in[:bytes.LastIndexByte(in, '\n')+1]; !bytes.Equal(out, want) {
			t.Fatalf("repair kept %q, want the complete lines %q", out, want)
		}
		if lines := bytes.Count(out, []byte{'\n'}); rows != lines {
			t.Fatalf("rows %d, file holds %d complete lines", rows, lines)
		}
	})
}

// FuzzTruncateSinkFile drives the resume-time truncation with arbitrary
// sink bytes and record counts. It must never panic. On success the
// file is the input's first records lines; when the input holds fewer
// complete lines it must refuse and leave the file alone.
func FuzzTruncateSinkFile(f *testing.F) {
	addSinkSeeds(f, func(blob []byte) {
		for _, records := range []int{0, 1, 2, 3, 4} {
			f.Add(blob, records)
		}
	})
	f.Fuzz(func(t *testing.T, in []byte, records int) {
		path := fuzzSinkFile(t, in)
		err := TruncateSinkFile(path, records)
		complete := bytes.Count(in, []byte{'\n'})
		if err != nil {
			if records <= complete {
				t.Fatalf("refused %d lines of an input with %d: %v", records, complete, err)
			}
			if out, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(out, in) {
				t.Fatalf("a refused truncation changed the file to %q (%v)", out, rerr)
			}
			return
		}
		out := checkSinkPrefix(t, path, in)
		if lines := bytes.Count(out, []byte{'\n'}); lines != max(records, 0) {
			t.Fatalf("kept %d lines for %d records", lines, records)
		}
	})
}
