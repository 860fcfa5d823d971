package stream

import (
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/format"
	"repro/internal/sample"
)

func buildDataset(n int) *dataset.Dataset {
	var samples []*sample.Sample
	for i := 0; i < n; i++ {
		s := sample.New(strings.Repeat("word ", i%13+1) + "tail")
		s.Meta = s.Meta.Set("idx", i)
		s.Stats.Set("score", float64(i)/2)
		if i%5 == 0 {
			s.Parts = map[string]string{"abstract": "part text"}
		}
		samples = append(samples, s)
	}
	return dataset.New(samples)
}

// drain reads every shard of a source, checking dense ordered indexes.
func drain(t *testing.T, src Source) *dataset.Dataset {
	t.Helper()
	var all []*sample.Sample
	next := 0
	for {
		sh, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if sh.Index != next {
			t.Fatalf("shard index %d, want %d", sh.Index, next)
		}
		next++
		all = append(all, sh.Data.Samples...)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	return dataset.New(all)
}

func assertSameSamples(t *testing.T, got, want *dataset.Dataset) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("got %d samples, want %d", got.Len(), want.Len())
	}
	g, w := sampleLines(t, got), sampleLines(t, want)
	for i := range w {
		if g[i] != w[i] {
			t.Fatalf("sample %d differs:\ngot:  %s\nwant: %s", i, g[i], w[i])
		}
	}
}

// TestShardedSinkRoundTrip: the streaming reader must read back exactly
// what the sharded streaming writer wrote — order, text, parts, meta and
// stats preserved across the file boundary.
func TestShardedSinkRoundTrip(t *testing.T) {
	want := buildDataset(57)
	prefix := filepath.Join(t.TempDir(), "out", "export")
	sink, err := NewShardedJSONLSink(prefix)
	if err != nil {
		t.Fatal(err)
	}
	// Feed uneven shards, including an empty one that must be skipped.
	bounds := []int{0, 10, 10, 25, 57}
	for i := 1; i < len(bounds); i++ {
		if err := sink.Consume(dataset.New(want.Samples[bounds[i-1]:bounds[i]])); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	paths := sink.Paths()
	if len(paths) != 3 {
		t.Fatalf("got %d shard files, want 3 (empty shard skipped): %v", len(paths), paths)
	}
	for i, p := range paths {
		base := filepath.Base(p)
		if want := filepathShardName("export", i, 3); base != want {
			t.Errorf("shard file %d named %q, want %q", i, base, want)
		}
		if _, err := os.Stat(p); err != nil {
			t.Errorf("shard file missing: %v", err)
		}
	}
	// No leftover .part files.
	leftovers, _ := filepath.Glob(filepath.Join(filepath.Dir(prefix), "*.part"))
	if len(leftovers) != 0 {
		t.Fatalf("leftover part files: %v", leftovers)
	}

	assertSameSamples(t, drain(t, openFiles(t, 8, paths...)), want)
}

// openFiles streams the given files back-to-back as one source of
// shardSize-sample shards.
func openFiles(t testing.TB, shardSize int, paths ...string) *SampleSource {
	t.Helper()
	fs, err := format.OpenFiles(paths...)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSampleSource(fs, shardSize)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func filepathShardName(prefix string, i, n int) string {
	return fmt.Sprintf("%s-%05d-of-%05d.jsonl", prefix, i, n)
}

// TestJSONLSourceMatchesBatchLoader: streaming decode must agree with
// format.Load on the same file, including foreign JSONL fields.
func TestJSONLSourceMatchesBatchLoader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "foreign.jsonl")
	raw := `{"text": "alpha beta", "source": "web", "meta": {"lang": "en"}}
{"content": "gamma delta epsilon"}

{"text": "zeta", "stats": {"score": 0.5}}
`
	if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	want, err := format.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSamples(t, drain(t, openFiles(t, 2, path)), want)
}

// TestOpenSourceSpecs resolves the spec families.
func TestOpenSourceSpecs(t *testing.T) {
	// hub: generates in memory, then shards through the same adapter.
	src, err := OpenSource("hub:web-en?docs=20&seed=3", 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := src.(*SampleSource); !ok {
		t.Fatalf("hub spec resolved to %T, want *SampleSource", src)
	}
	if d := drain(t, src); d.Len() != 20 {
		t.Fatalf("hub source yielded %d samples, want 20", d.Len())
	}

	// A .jsonl file streams.
	dir := t.TempDir()
	d := buildDataset(30)
	file := filepath.Join(dir, "a.jsonl")
	if err := d.SaveJSONL(file); err != nil {
		t.Fatal(err)
	}
	src, err = OpenSource(file, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := src.(*SampleSource); !ok {
		t.Fatalf("jsonl file resolved to %T, want *SampleSource", src)
	}
	assertSameSamples(t, drain(t, src), d)

	// A directory of only .jsonl files streams across all of them.
	if err := dataset.New(d.Samples[:10]).SaveJSONL(filepath.Join(dir, "b.jsonl")); err != nil {
		t.Fatal(err)
	}
	src, err = OpenSource(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := src.(*SampleSource); !ok {
		t.Fatalf("jsonl dir resolved to %T, want *SampleSource", src)
	}
	if got := drain(t, src); got.Len() != 40 {
		t.Fatalf("dir source yielded %d samples, want 40", got.Len())
	}
}

// TestStreamMatchesBatchAcrossFormats: for gzip-compressed and
// record-oriented inputs (csv/tsv), draining the streaming shard source
// must reproduce the batch loader exactly — the golden contract that
// lets the two backends share multi-format specs.
func TestStreamMatchesBatchAcrossFormats(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	gzwrite := func(name, content string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		zw := gzip.NewWriter(f)
		if _, err := zw.Write([]byte(content)); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	specs := []string{
		write("a.csv", "text,tag\nrow one,x\n\"quoted, cell\",y\nrow three,z\n"),
		write("b.tsv", "text\tscore\nfirst\t1\nsecond\t2\n"),
		gzwrite("c.jsonl.gz", "{\"text\":\"zipped one\"}\n{\"text\":\"zipped two\",\"meta\":{\"k\":\"v\"}}\n"),
		gzwrite("d.csv.gz", "text,lang\ncompressed csv,en\n"),
	}
	for _, spec := range specs {
		want, err := format.Load(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		src, err := OpenSource(spec, 2)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		assertSameSamples(t, drain(t, src), want)
	}
}

// TestOpenSourceMixSpec: a mix: spec shards the interleaved stream.
func TestOpenSourceMixSpec(t *testing.T) {
	dir := t.TempDir()
	d := buildDataset(12)
	file := filepath.Join(dir, "a.jsonl")
	if err := d.SaveJSONL(file); err != nil {
		t.Fatal(err)
	}
	spec := "mix:" + file + "@2,hub:wiki?docs=6&seed=9@1"
	want, err := format.Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	src, err := OpenSource(spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSamples(t, drain(t, src), want)
}

// TestDatasetSourceSharding checks shard boundaries and sample aliasing.
func TestDatasetSourceSharding(t *testing.T) {
	d := buildDataset(10)
	src, err := NewDatasetSource(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{}
	for {
		sh, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, sh.Data.Len())
	}
	if len(sizes) != 3 || sizes[0] != 4 || sizes[1] != 4 || sizes[2] != 2 {
		t.Fatalf("shard sizes = %v, want [4 4 2]", sizes)
	}
	if _, err := NewDatasetSource(d, 0); err == nil {
		t.Fatal("zero shard size should error")
	}
}

// TestShardedSinkReplacesPreviousGeneration: re-exporting under the
// same prefix with a different shard count must not leave stale files
// (or orphaned .part files from a crashed run) behind the glob.
func TestShardedSinkReplacesPreviousGeneration(t *testing.T) {
	d := buildDataset(30)
	prefix := filepath.Join(t.TempDir(), "out")

	writeGen := func(shards int) {
		t.Helper()
		sink, err := NewShardedJSONLSink(prefix)
		if err != nil {
			t.Fatal(err)
		}
		per := (d.Len() + shards - 1) / shards
		for lo := 0; lo < d.Len(); lo += per {
			hi := lo + per
			if hi > d.Len() {
				hi = d.Len()
			}
			if err := sink.Consume(dataset.New(d.Samples[lo:hi])); err != nil {
				t.Fatal(err)
			}
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
	}

	writeGen(5)
	// Simulate a crashed run's orphan.
	orphan := prefix + "-00099.jsonl.part"
	if err := os.WriteFile(orphan, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	writeGen(2)

	got, err := filepath.Glob(prefix + "-*")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		prefix + "-00000-of-00002.jsonl",
		prefix + "-00001-of-00002.jsonl",
	}
	if len(got) != len(want) {
		t.Fatalf("after re-export, files = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("file %d = %q, want %q", i, got[i], want[i])
		}
	}
}
