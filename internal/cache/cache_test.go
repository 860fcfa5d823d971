package cache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/dataset"
	"repro/internal/ops"
	_ "repro/internal/ops/all"
)

var codecNames = []string{"none", "gzip", "flate", "lzj"}

func TestCodecRoundTrips(t *testing.T) {
	payloads := [][]byte{
		nil,
		[]byte(""),
		[]byte("short"),
		[]byte(strings.Repeat("compressible text block ", 500)),
		bytes.Repeat([]byte{0}, 10000),
		[]byte("日本語テキスト with mixed content 123"),
	}
	for _, name := range codecNames {
		codec, err := CodecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range payloads {
			enc, err := codec.Encode(p)
			if err != nil {
				t.Fatalf("%s encode payload %d: %v", name, i, err)
			}
			dec, err := codec.Decode(enc)
			if err != nil {
				t.Fatalf("%s decode payload %d: %v", name, i, err)
			}
			if !bytes.Equal(dec, p) {
				t.Fatalf("%s payload %d corrupted: got %d bytes want %d", name, i, len(dec), len(p))
			}
		}
	}
}

func TestCodecUnknown(t *testing.T) {
	if _, err := CodecByName("zstd-pro"); err == nil {
		t.Fatal("unknown codec must error")
	}
	if c, err := CodecByName(""); err != nil || c.Name() != "none" {
		t.Fatalf("empty codec = %v, %v", c, err)
	}
}

func TestLZJCompressesRepetitiveData(t *testing.T) {
	codec, _ := CodecByName("lzj")
	data := []byte(strings.Repeat("the same sentence appears many times in this corpus. ", 200))
	enc, err := codec.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) >= len(data)/4 {
		t.Fatalf("lzj ratio too poor on repetitive data: %d -> %d", len(data), len(enc))
	}
}

func TestLZJRejectsCorruptInput(t *testing.T) {
	codec, _ := CodecByName("lzj")
	cases := [][]byte{
		{},
		[]byte("x"),
		[]byte("12345678"), // bad magic
		{0x31, 0x4a, 0x5a, 0x4c, 9, 9, 9, 9, 0xff}, // magic ok-ish but garbage body
	}
	for i, c := range cases {
		if _, err := codec.Decode(c); err == nil {
			t.Errorf("case %d: corrupt input accepted", i)
		}
	}
}

// Property: lzj round-trips arbitrary byte strings.
func TestPropertyLZJRoundTrip(t *testing.T) {
	codec, _ := CodecByName("lzj")
	f := func(data []byte) bool {
		enc, err := codec.Encode(data)
		if err != nil {
			return false
		}
		dec, err := codec.Decode(enc)
		if err != nil {
			return false
		}
		return bytes.Equal(dec, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: lzj round-trips highly repetitive inputs (overlapping matches).
func TestPropertyLZJOverlap(t *testing.T) {
	codec, _ := CodecByName("lzj")
	f := func(unit []byte, rep uint8) bool {
		if len(unit) == 0 {
			unit = []byte{'a'}
		}
		data := bytes.Repeat(unit, int(rep%50)+2)
		enc, err := codec.Encode(data)
		if err != nil {
			return false
		}
		dec, err := codec.Decode(enc)
		if err != nil {
			return false
		}
		return bytes.Equal(dec, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func sampleDataset(n int) *dataset.Dataset {
	texts := make([]string, n)
	for i := range texts {
		texts[i] = fmt.Sprintf("cached sample number %d with some shared prefix text", i)
	}
	return dataset.FromTexts(texts)
}

func TestStorePutGet(t *testing.T) {
	for _, codec := range codecNames {
		t.Run(codec, func(t *testing.T) {
			store, err := NewStore(t.TempDir(), codec)
			if err != nil {
				t.Fatal(err)
			}
			d := sampleDataset(50)
			key := Key(d.Fingerprint(), "word_num_filter", ops.Params{"min_num": 5})
			if _, ok, _ := store.Get(key); ok {
				t.Fatal("unexpected cache hit")
			}
			if err := store.Put(key, d); err != nil {
				t.Fatal(err)
			}
			got, ok, err := store.Get(key)
			if err != nil || !ok {
				t.Fatalf("Get = %v, %v", ok, err)
			}
			if got.Fingerprint() != d.Fingerprint() {
				t.Fatal("cache round trip corrupted dataset")
			}
		})
	}
}

func TestStoreKeysAndDelete(t *testing.T) {
	store, _ := NewStore(t.TempDir(), "gzip")
	d := sampleDataset(3)
	store.Put("aaa", d)
	store.Put("bbb", d)
	keys, err := store.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "aaa" {
		t.Fatalf("keys = %v", keys)
	}
	if err := store.Delete("aaa"); err != nil {
		t.Fatal(err)
	}
	if err := store.Delete("aaa"); err != nil {
		t.Fatal("double delete must be nil")
	}
	keys, _ = store.Keys()
	if len(keys) != 1 {
		t.Fatalf("keys after delete = %v", keys)
	}
	if size, err := store.SizeOnDisk(); err != nil || size <= 0 {
		t.Fatalf("SizeOnDisk = %d, %v", size, err)
	}
}

func TestKeyDistinguishesParams(t *testing.T) {
	fp := "abc"
	k1 := Key(fp, "op", ops.Params{"a": 1})
	k2 := Key(fp, "op", ops.Params{"a": 2})
	k3 := Key(fp, "op2", ops.Params{"a": 1})
	k4 := Key("other", "op", ops.Params{"a": 1})
	if k1 == k2 || k1 == k3 || k1 == k4 {
		t.Fatalf("keys collide: %s %s %s %s", k1, k2, k3, k4)
	}
	// Param order must not matter.
	ka := Key(fp, "op", ops.Params{"a": 1, "b": 2})
	kb := Key(fp, "op", ops.Params{"b": 2, "a": 1})
	if ka != kb {
		t.Fatal("param order changed the key")
	}
}

// TestKeySchemaPinned pins Key for one fixed input. The key must change
// whenever keySchema is bumped, so entries written before a deliberate
// output change miss; fb0e8d017e9e00b6 is this input's key at schema 1,
// before the key mixed in a schema at all.
func TestKeySchemaPinned(t *testing.T) {
	got := Key("abc", "document_minhash_deduplicator", ops.Params{"jaccard_threshold": 0.7})
	if got == "fb0e8d017e9e00b6" {
		t.Fatal("key equals its schema-1 value: stale cache entries would hit")
	}
	if want := "afea20eb921adcc4"; got != want {
		t.Fatalf("key = %s, want %s (bump keySchema and re-pin on a deliberate output change)", got, want)
	}
}

func TestCheckpointSaveResume(t *testing.T) {
	dir := t.TempDir()
	m, err := NewCheckpointManager(dir, "lzj")
	if err != nil {
		t.Fatal(err)
	}
	// Nothing to resume initially.
	if _, _, ok, err := m.Resume("recipe-1"); ok || err != nil {
		t.Fatalf("initial resume = %v, %v", ok, err)
	}
	d := sampleDataset(20)
	if err := m.Save("recipe-1", 3, d); err != nil {
		t.Fatal(err)
	}
	idx, got, ok, err := m.Resume("recipe-1")
	if err != nil || !ok {
		t.Fatalf("resume = %v, %v", ok, err)
	}
	if idx != 3 || got.Fingerprint() != d.Fingerprint() {
		t.Fatalf("resume idx=%d", idx)
	}
	// A different recipe must not resume from this checkpoint.
	if _, _, ok, _ := m.Resume("recipe-2"); ok {
		t.Fatal("foreign recipe resumed")
	}
}

func TestCheckpointReplacementCleansOld(t *testing.T) {
	dir := t.TempDir()
	m, _ := NewCheckpointManager(dir, "none")
	d := sampleDataset(5)
	m.Save("r", 1, d)
	m.Save("r", 2, d)
	m.Save("r", 3, d)
	entries, _ := os.ReadDir(dir)
	// Exactly one state file plus the manifest should remain.
	var states int
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "state-") {
			states++
		}
	}
	if states != 1 {
		t.Fatalf("stale state files left: %d", states)
	}
	idx, _, ok, _ := m.Resume("r")
	if !ok || idx != 3 {
		t.Fatalf("resume after replacement: idx=%d ok=%v", idx, ok)
	}
}

func TestCheckpointClear(t *testing.T) {
	dir := t.TempDir()
	m, _ := NewCheckpointManager(dir, "none")
	m.Save("r", 1, sampleDataset(2))
	if err := m.Clear(); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, _ := m.Resume("r"); ok {
		t.Fatal("resume after clear")
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 0 {
		t.Fatalf("files left after clear: %d", len(entries))
	}
}

func TestCheckpointCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	m, _ := NewCheckpointManager(dir, "none")
	os.WriteFile(filepath.Join(dir, "checkpoint.json"), []byte("not json"), 0o644)
	if _, _, _, err := m.Resume("r"); err == nil {
		t.Fatal("corrupt manifest should surface an error")
	}
}

func TestSpaceAnalysis(t *testing.T) {
	r, err := config.ParseRecipe(`
process:
  - whitespace_normalization_mapper:
  - fix_unicode_mapper:
  - word_num_filter:
  - stopwords_filter:
  - flagged_words_filter:
  - document_deduplicator:
`)
	if err != nil {
		t.Fatal(err)
	}
	a, err := AnalyzeSpace(r)
	if err != nil {
		t.Fatal(err)
	}
	if a.Mappers != 2 || a.Filters != 3 || a.Deduplicators != 1 {
		t.Fatalf("census = %+v", a)
	}
	// 1 + M + F + 1{F>0} + D = 1 + 2 + 3 + 1 + 1 = 8.
	if a.CacheModeMultiple != 8 {
		t.Fatalf("cache multiple = %d", a.CacheModeMultiple)
	}
	if a.CheckpointModeMultiple != 3 {
		t.Fatalf("checkpoint multiple = %d", a.CheckpointModeMultiple)
	}
	out := a.Render(1000)
	if !strings.Contains(out, "8 x S = 8000") || !strings.Contains(out, "3 x S = 3000") {
		t.Fatalf("render = %q", out)
	}

	// Mapper-only recipe: no stats column, no 1{F>0} term.
	r2, _ := config.ParseRecipe("process:\n  - lowercase_mapper:\n")
	a2, _ := AnalyzeSpace(r2)
	if a2.CacheModeMultiple != 2 {
		t.Fatalf("mapper-only multiple = %d", a2.CacheModeMultiple)
	}

	r3 := config.Default()
	r3.Process = []config.OpSpec{{Name: "ghost"}}
	if _, err := AnalyzeSpace(r3); err == nil {
		t.Fatal("unknown op accepted")
	}
}
