package format

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
)

func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadHub(t *testing.T) {
	d, err := Load("hub:wiki?docs=15&seed=3")
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 15 {
		t.Fatalf("len = %d", d.Len())
	}
	if _, err := Load("hub:unknown-source"); err == nil {
		t.Fatal("unknown hub must error")
	}
	if _, err := Load("hub:wiki?docs=x"); err == nil {
		t.Fatal("bad docs must error")
	}
}

func TestLoadJSONLNativeAndForeign(t *testing.T) {
	dir := t.TempDir()
	path := write(t, dir, "d.jsonl", `
{"text":"native sample","meta":{"src":"a"}}
{"content":"foreign content field","url":"http://x","lang":"en"}
`)
	d, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 {
		t.Fatalf("len = %d", d.Len())
	}
	if d.Samples[0].Text != "native sample" {
		t.Fatalf("text 0 = %q", d.Samples[0].Text)
	}
	if v, _ := d.Samples[0].GetString("meta.src"); v != "a" {
		t.Fatalf("meta.src = %q", v)
	}
	if d.Samples[1].Text != "foreign content field" {
		t.Fatalf("text 1 = %q", d.Samples[1].Text)
	}
	// Foreign top-level fields land in meta.
	if v, _ := d.Samples[1].GetString("meta.url"); v != "http://x" {
		t.Fatalf("meta.url = %q", v)
	}
}

func TestLoadJSONLNestedTextParts(t *testing.T) {
	dir := t.TempDir()
	path := write(t, dir, "d.jsonl", `{"text":{"body":"main body","abstract":"the abstract"}}`)
	d, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Samples[0].Text != "main body" {
		t.Fatalf("body = %q", d.Samples[0].Text)
	}
	if v, _ := d.Samples[0].GetString("text.abstract"); v != "the abstract" {
		t.Fatalf("abstract = %q", v)
	}
}

func TestLoadJSONArrayAndObject(t *testing.T) {
	dir := t.TempDir()
	arr := write(t, dir, "a.json", `[{"text":"one"},{"text":"two"}]`)
	d, err := Load(arr)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 || d.Samples[1].Text != "two" {
		t.Fatalf("array load = %v", d.Samples)
	}
	obj := write(t, dir, "o.json", `{"text":"solo"}`)
	d2, err := Load(obj)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != 1 || d2.Samples[0].Text != "solo" {
		t.Fatalf("object load = %v", d2.Samples)
	}
}

func TestLoadTxtMdCode(t *testing.T) {
	dir := t.TempDir()
	txt := write(t, dir, "doc.txt", "plain text document")
	d, _ := Load(txt)
	if d.Len() != 1 || d.Samples[0].Text != "plain text document" {
		t.Fatalf("txt = %v", d.Samples)
	}
	code := write(t, dir, "prog.py", "def f():\n    return 1\n")
	d2, _ := Load(code)
	if v, _ := d2.Samples[0].GetString("meta.suffix"); v != ".py" {
		t.Fatalf("suffix = %q", v)
	}
}

func TestLoadHTMLStripsMarkup(t *testing.T) {
	dir := t.TempDir()
	path := write(t, dir, "p.html", "<html><body><p>Hello <b>there</b></p></body></html>")
	d, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(d.Samples[0].Text, "<") {
		t.Fatalf("markup left: %q", d.Samples[0].Text)
	}
	if !strings.Contains(d.Samples[0].Text, "Hello there") {
		t.Fatalf("content lost: %q", d.Samples[0].Text)
	}
}

func TestLoadCSVAndTSV(t *testing.T) {
	dir := t.TempDir()
	csvPath := write(t, dir, "d.csv", "id,text,lang\n1,hello world,en\n2,second row,de\n")
	d, err := Load(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 || d.Samples[0].Text != "hello world" {
		t.Fatalf("csv = %v", d.Samples)
	}
	if v, _ := d.Samples[1].GetString("meta.lang"); v != "de" {
		t.Fatalf("meta.lang = %q", v)
	}
	tsvPath := write(t, dir, "d.tsv", "text\tscore\nrow one\t5\n")
	d2, err := Load(tsvPath)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Samples[0].Text != "row one" {
		t.Fatalf("tsv = %v", d2.Samples)
	}
}

func TestLoadDirectoryMerges(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "a.txt", "file a")
	write(t, dir, "sub/b.txt", "file b")
	write(t, dir, "ignore.bin", "binary")
	d, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 {
		t.Fatalf("dir load = %d", d.Len())
	}
}

func TestLoadDirectoryEmpty(t *testing.T) {
	if _, err := Load(t.TempDir()); err == nil {
		t.Fatal("empty dir must error")
	}
}

func TestLoadMissing(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.jsonl")); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestExportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src, _ := Load("hub:wiki?docs=10&seed=1")
	out := filepath.Join(dir, "out.jsonl")
	if err := Export(src, out); err != nil {
		t.Fatal(err)
	}
	back, err := Load(out)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != src.Fingerprint() {
		t.Fatal("jsonl export not lossless")
	}
}

func TestExportJSONAndTxt(t *testing.T) {
	dir := t.TempDir()
	src, _ := Load("hub:wiki?docs=3&seed=1")
	jpath := filepath.Join(dir, "out.json")
	if err := Export(src, jpath); err != nil {
		t.Fatal(err)
	}
	back, err := Load(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 3 {
		t.Fatalf("json round trip = %d", back.Len())
	}
	tpath := filepath.Join(dir, "out.txt")
	if err := Export(src, tpath); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(tpath)
	if !strings.Contains(string(raw), src.Samples[0].Text[:20]) {
		t.Fatal("txt export lost content")
	}
	if err := Export(src, filepath.Join(dir, "out.parquet")); err == nil {
		t.Fatal("unsupported export must error")
	}
}

func TestLoadJSONLBadLine(t *testing.T) {
	dir := t.TempDir()
	path := write(t, dir, "bad.jsonl", "{\"text\":\"ok\"}\n{broken\n")
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v", err)
	}
}

func TestExportSharded(t *testing.T) {
	dir := t.TempDir()
	src, _ := Load("hub:wiki?docs=25&seed=2")
	paths, err := exportSharded(src, filepath.Join(dir, "out"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("shards = %v", paths)
	}
	// A directory load over the shards reassembles the dataset.
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 25 {
		t.Fatalf("reassembled = %d", back.Len())
	}
	if back.Fingerprint() != src.Fingerprint() {
		t.Fatal("sharded round trip not lossless")
	}
	if _, err := exportSharded(src, filepath.Join(dir, "bad"), 0); err == nil {
		t.Fatal("shard size 0 must error")
	}
}

func TestExportShardedNamingAndBoundaries(t *testing.T) {
	dir := t.TempDir()
	src, _ := Load("hub:wiki?docs=21&seed=4")

	// Exact -NNNNN-of-MMMMM naming, in order.
	paths, err := exportSharded(src, filepath.Join(dir, "corpus"), 10)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"corpus-00000-of-00003.jsonl",
		"corpus-00001-of-00003.jsonl",
		"corpus-00002-of-00003.jsonl",
	}
	if len(paths) != len(want) {
		t.Fatalf("got %d paths, want %d", len(paths), len(want))
	}
	for i, p := range paths {
		if filepath.Base(p) != want[i] {
			t.Errorf("shard %d named %q, want %q", i, filepath.Base(p), want[i])
		}
	}
	// The last shard holds the remainder.
	last, err := Load(paths[2])
	if err != nil {
		t.Fatal(err)
	}
	if last.Len() != 1 {
		t.Fatalf("last shard holds %d samples, want the 1 remainder", last.Len())
	}
	// Order and metadata survive: first sample of shard 1 is source
	// sample 10, byte for byte.
	mid, err := Load(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	if mid.Samples[0].Text != src.Samples[10].Text {
		t.Fatal("shard 1 does not start at source sample 10")
	}
	if mid.Fingerprint() == "" || mid.Len() != 10 {
		t.Fatalf("shard 1 malformed: %d samples", mid.Len())
	}

	// A shard size larger than the dataset yields a single full shard.
	paths, err = exportSharded(src, filepath.Join(dir, "one"), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || filepath.Base(paths[0]) != "one-00000-of-00001.jsonl" {
		t.Fatalf("oversize shard export = %v", paths)
	}

	// An empty dataset still writes one (empty) shard file.
	empty, _ := Load("hub:wiki?docs=1&seed=4")
	empty.Samples = nil
	paths, err = exportSharded(empty, filepath.Join(dir, "empty"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("empty export = %v", paths)
	}
	if st, err := os.Stat(paths[0]); err != nil || st.Size() != 0 {
		t.Fatalf("empty shard file: stat=%v size mismatch", err)
	}

	// Negative shard sizes error like zero.
	if _, err := exportSharded(src, filepath.Join(dir, "bad"), -3); err == nil {
		t.Fatal("negative shard size must error")
	}
}

// exportSharded writes the dataset as numbered JSONL shard files
// (path-00000-of-NNNNN.jsonl), each holding at most shardSize samples —
// the multi-file layout a directory load reassembles. It returns the
// written file paths.
func exportSharded(d *dataset.Dataset, pathPrefix string, shardSize int) ([]string, error) {
	if shardSize <= 0 {
		return nil, fmt.Errorf("format: shard size must be positive")
	}
	if err := os.MkdirAll(filepath.Dir(pathPrefix), 0o755); err != nil {
		return nil, err
	}
	nShards := (d.Len() + shardSize - 1) / shardSize
	if nShards == 0 {
		nShards = 1
	}
	var paths []string
	for i := 0; i < nShards; i++ {
		lo := i * shardSize
		hi := lo + shardSize
		if hi > d.Len() {
			hi = d.Len()
		}
		shard := dataset.New(d.Samples[lo:hi])
		path := fmt.Sprintf("%s-%05d-of-%05d.jsonl", pathPrefix, i, nShards)
		if err := shard.SaveJSONL(path); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}
