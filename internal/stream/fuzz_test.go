package stream

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/format"
)

// referenceParse is the straightforward (non-incremental) reading of a
// JSONL byte stream with the source's exact line discipline: trimmed
// lines, blank lines skipped, format.SampleFromJSON decoding. The fuzz
// target holds JSONLSource — incremental buffering, shard slicing, file
// advancing and all — to this oracle.
func referenceParse(data []byte) ([]string, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26)
	var lines []string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		s, err := format.SampleFromJSON([]byte(line))
		if err != nil {
			return nil, err
		}
		raw, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		lines = append(lines, string(raw))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return lines, nil
}

// drainSource reads a source to EOF, returning each sample re-marshaled
// plus every shard's size.
func drainSource(src Source) (lines []string, sizes []int, err error) {
	for {
		sh, err := src.Next()
		if err == io.EOF {
			return lines, sizes, nil
		}
		if err != nil {
			return nil, nil, err
		}
		sizes = append(sizes, sh.Data.Len())
		for _, s := range sh.Data.Samples {
			raw, err := json.Marshal(s)
			if err != nil {
				return nil, nil, err
			}
			lines = append(lines, string(raw))
		}
	}
}

// FuzzJSONLSource feeds arbitrary bytes through the incremental JSONL
// source and checks it against the reference parse: same accept/reject
// verdict, same samples in the same order, and exact shard-size
// invariants.
func FuzzJSONLSource(f *testing.F) {
	f.Add([]byte("{\"text\":\"hello world\"}\n{\"text\":\"second line\"}\n"))
	f.Add([]byte("\n   \n{\"text\":\"blank lines around\"}\n\n"))
	f.Add([]byte("{\"text\":\"ok\"}\nnot json at all\n"))
	f.Add([]byte("{\"text\":\"trailing no newline\"}"))
	f.Add([]byte("{\"text\":\"meta too\",\"meta\":{\"lang\":\"en\"},\"stats\":{\"x\":1}}\r\n{\"text\":\"crlf\"}\r\n"))
	f.Add([]byte("{\"text\":\"日本語のテキスト。\"}\n{\"text\":\"emoji 🎉 ok\"}\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := referenceParse(data)

		path := filepath.Join(t.TempDir(), "fuzz.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		shardSize := 1 + len(data)%7

		src, err := NewJSONLSource(shardSize, path)
		if err != nil {
			t.Fatalf("NewJSONLSource: %v", err)
		}
		got, sizes, gotErr := drainSource(src)
		src.Close()

		if (wantErr != nil) != (gotErr != nil) {
			t.Fatalf("verdict diverges: reference err=%v, source err=%v", wantErr, gotErr)
		}
		if wantErr != nil {
			return
		}
		if len(got) != len(want) {
			t.Fatalf("sample count diverges: source %d, reference %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("sample %d diverges:\nsource:    %s\nreference: %s", i, got[i], want[i])
			}
		}
		for i, n := range sizes {
			if n < 1 || n > shardSize {
				t.Fatalf("shard %d has %d samples; want 1..%d", i, n, shardSize)
			}
			if i < len(sizes)-1 && n != shardSize {
				t.Fatalf("non-final shard %d has %d samples; want exactly %d", i, n, shardSize)
			}
		}
	})
}
