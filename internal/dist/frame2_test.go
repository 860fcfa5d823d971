package dist

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sample"
)

// richDataset builds samples exercising every column the v2 frame
// carries: bare text, parts, meta, stats, and unicode payloads.
func richDataset() *dataset.Dataset {
	a := sample.New("plain text only")
	b := sample.New(`text with "quotes" and	tabs`)
	b.SetStat("alnum_ratio", 0.75)
	b.SetStatString("lang", "en")
	c := sample.New("日本語テキスト with mixed content")
	c.Parts = map[string]string{"title": "heading", "body": "the rest"}
	c.Meta = sample.Fields{"source": "unit-test", "weight": 2.5}
	c.SetStat("word_num", 42)
	d := sample.New("")
	d.SetStat("empty_text", 1)
	return dataset.New([]*sample.Sample{a, b, c, d})
}

// jsonl renders a dataset in export form — the byte-identity yardstick.
func jsonl(t *testing.T, d *dataset.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFrame2RoundTrip and TestFrame2DeltaRoundTrip run under the case
// name "plain": frames are never compressed.
func TestFrame2RoundTrip(t *testing.T) { t.Run("plain", frame2RoundTripPlain) }

func frame2RoundTripPlain(t *testing.T) {
	d := richDataset()
	h := RunHeader{RunID: "r2", Shard: 7, FromOp: 0, ToOp: 2, Samples: d.Len()}
	var buf bytes.Buffer
	wire, raw, err := WriteFrame2(&buf, h, d, false)
	if err != nil {
		t.Fatal(err)
	}
	if wire != int64(buf.Len()) || raw != wire {
		t.Errorf("wire %d raw %d, buffer holds %d", wire, raw, buf.Len())
	}
	fr := NewFrame2Reader(&buf)
	var got RunHeader
	if err := fr.Header(&got); err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("header round trip: got %+v want %+v", got, h)
	}
	f, err := fr.Body()
	if err != nil {
		t.Fatal(err)
	}
	if f.Delta {
		t.Error("full frame decoded as delta")
	}
	if f.Wire != wire {
		t.Errorf("reader accounting wire=%d, writer said %d", f.Wire, wire)
	}
	if !bytes.Equal(jsonl(t, f.Data), jsonl(t, d)) {
		t.Error("payload not byte-identical after round trip")
	}
}

// TestWriteFrame2RejectsCompress: the compress argument survives only for
// signature compatibility; asking for compression must fail, not write a
// plain frame the caller believes is compressed.
func TestWriteFrame2RejectsCompress(t *testing.T) {
	var buf bytes.Buffer
	if _, _, err := WriteFrame2(&buf, RunHeader{}, richDataset(), true); err == nil {
		t.Fatal("WriteFrame2 accepted compress=true")
	}
	if buf.Len() != 0 {
		t.Errorf("rejected write still put %d bytes on the wire", buf.Len())
	}
}

func TestFrame2EmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if _, _, err := WriteFrame2(&buf, ResultHeader{Shard: 3}, dataset.New(nil), false); err != nil {
		t.Fatal(err)
	}
	fr := NewFrame2Reader(&buf)
	var h ResultHeader
	if err := fr.Header(&h); err != nil {
		t.Fatal(err)
	}
	f, err := fr.Body()
	if err != nil {
		t.Fatal(err)
	}
	if f.Data.Len() != 0 || h.Shard != 3 {
		t.Errorf("empty frame round trip: %d samples, shard %d", f.Data.Len(), h.Shard)
	}
}

// TestFrame2ManyBatches crosses the batch boundary so the per-batch
// count discipline is exercised on both sides.
func TestFrame2ManyBatches(t *testing.T) {
	samples := make([]*sample.Sample, frame2BatchSize*2+17)
	for i := range samples {
		samples[i] = sample.New(strings.Repeat("x", i%97))
	}
	d := dataset.New(samples)
	var buf bytes.Buffer
	if _, _, err := WriteFrame2(&buf, RunHeader{}, d, false); err != nil {
		t.Fatal(err)
	}
	fr := NewFrame2Reader(&buf)
	var h RunHeader
	if err := fr.Header(&h); err != nil {
		t.Fatal(err)
	}
	f, err := fr.Body()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonl(t, f.Data), jsonl(t, d)) {
		t.Error("multi-batch payload not byte-identical")
	}
}

func TestFrame2DeltaRoundTrip(t *testing.T) { t.Run("plain", frame2DeltaRoundTripPlain) }

func frame2DeltaRoundTripPlain(t *testing.T) {
	in := make([]*sample.Sample, 21)
	for i := range in {
		in[i] = sample.New(strings.Repeat("s", i+1))
	}
	var kept []*sample.Sample
	for i, s := range in {
		if i%3 != 0 { // drop every third sample
			s.SetStat("keep_score", float64(i))
			kept = append(kept, s)
		}
	}
	mask, ok := BuildKeepMask(in, kept)
	if !ok {
		t.Fatal("BuildKeepMask rejected an ordered subset")
	}
	var buf bytes.Buffer
	rh := ResultHeader{Shard: 5, Samples: len(kept), Delta: true}
	wire, err := WriteDeltaFrame2(&buf, rh, mask, len(in), kept)
	if err != nil {
		t.Fatal(err)
	}
	fr := NewFrame2Reader(&buf)
	var got ResultHeader
	if err := fr.Header(&got); err != nil {
		t.Fatal(err)
	}
	f, err := fr.Body()
	if err != nil {
		t.Fatal(err)
	}
	if !f.Delta || f.InCount != len(in) || f.Data.Len() != len(kept) {
		t.Fatalf("delta frame decoded wrong: delta=%v in=%d kept=%d", f.Delta, f.InCount, f.Data.Len())
	}
	if f.Wire != wire {
		t.Errorf("reader accounting wire=%d, writer said %d", f.Wire, wire)
	}
	applied := ApplyKeepMask(in, f.Mask)
	if len(applied) != len(kept) {
		t.Fatalf("mask selects %d samples, want %d", len(applied), len(kept))
	}
	for i, s := range applied {
		if s != kept[i] {
			t.Fatalf("mask selected wrong sample at %d", i)
		}
		want, _ := kept[i].Stat("keep_score")
		got, ok := f.Data.Samples[i].Stat("keep_score")
		if !ok || got != want {
			t.Errorf("stats column entry %d: got %v (%v), want %v", i, got, ok, want)
		}
	}
}

func TestBuildKeepMaskRejectsNonSubset(t *testing.T) {
	in := []*sample.Sample{sample.New("a"), sample.New("b")}
	if _, ok := BuildKeepMask(in, []*sample.Sample{sample.New("a")}); ok {
		t.Error("accepted samples not drawn from the input slice")
	}
	if _, ok := BuildKeepMask(in, []*sample.Sample{in[1], in[0]}); ok {
		t.Error("accepted an out-of-order subset")
	}
	mask, ok := BuildKeepMask(in, nil)
	if !ok || len(ApplyKeepMask(in, mask)) != 0 {
		t.Error("empty keep set should produce an all-zero mask")
	}
}

// corruptAt returns a valid encoded frame with one byte mutated at the
// given offset past the JSON header line.
func corruptAt(t *testing.T, off int, xor byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, _, err := WriteFrame2(&buf, RunHeader{RunID: "c"}, richDataset(), false); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 || nl+1+off >= len(raw) {
		t.Fatalf("frame too short for corruption at %d", off)
	}
	out := append([]byte(nil), raw...)
	out[nl+1+off] ^= xor
	return out
}

func decodeFrame2(b []byte) error {
	fr := NewFrame2Reader(bytes.NewReader(b))
	var h RunHeader
	if err := fr.Header(&h); err != nil {
		return err
	}
	_, err := fr.Body()
	return err
}

func TestFrame2RejectsCorruption(t *testing.T) {
	cases := map[string][]byte{
		"bad magic":        corruptAt(t, 0, 0xff),
		"bad version":      corruptAt(t, 4, 0x01),
		"unknown flags":    corruptAt(t, 5, 0x80),
		"compress flag":    corruptAt(t, 5, 0x01), // bit 0: the retired compressed body
		"reserved nonzero": corruptAt(t, 6, 0x01),
		"huge count":       corruptAt(t, 11, 0xff), // top byte of sample count
		"bad batch count":  corruptAt(t, 16, 0x40),
	}
	for name, b := range cases {
		if err := decodeFrame2(b); err == nil {
			t.Errorf("%s: decode accepted a corrupt frame", name)
		}
	}
}

func TestFrame2RejectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	if _, _, err := WriteFrame2(&buf, RunHeader{RunID: "t"}, richDataset(), false); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	nl := bytes.IndexByte(full, '\n')
	// Cut inside the binary header, inside the length columns, and one
	// byte short of complete.
	for _, cut := range []int{nl + 3, nl + 10, nl + 25, len(full) - 1} {
		if err := decodeFrame2(full[:cut]); err == nil {
			t.Errorf("decode accepted a frame truncated at %d/%d", cut, len(full))
		}
	}
}

func TestFrame2RejectsBadDelta(t *testing.T) {
	in := make([]*sample.Sample, 10)
	for i := range in {
		in[i] = sample.New("x")
	}
	kept := in[:4]
	mask, ok := BuildKeepMask(in, kept)
	if !ok {
		t.Fatal("mask build failed")
	}
	encode := func(mask []byte, inCount int, kept []*sample.Sample) []byte {
		var buf bytes.Buffer
		if _, err := WriteDeltaFrame2(&buf, ResultHeader{Delta: true}, mask, inCount, kept); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	good := encode(mask, len(in), kept)
	nl := bytes.IndexByte(good, '\n')

	// Popcount mismatch: clear a mask bit without touching the counts.
	bad := append([]byte(nil), good...)
	bad[nl+1+frame2HeaderSize] &^= 1
	if err := decodeFrame2(bad); err == nil {
		t.Error("decode accepted a popcount/kept-count mismatch")
	}
	// Bits past the input count.
	bad = append([]byte(nil), good...)
	bad[nl+1+frame2HeaderSize+1] |= 1 << 7 // bit 15 of a 10-input mask
	if err := decodeFrame2(bad); err == nil {
		t.Error("decode accepted mask bits past the input count")
	}
	// kept > inCount in the binary header.
	bad = append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(bad[nl+1+12:], 2) // inCount 10 -> 2
	if err := decodeFrame2(bad); err == nil {
		t.Error("decode accepted kept count above input count")
	}
	// Full frame claiming a nonzero input count.
	var buf bytes.Buffer
	if _, _, err := WriteFrame2(&buf, RunHeader{}, frameDataset("a"), false); err != nil {
		t.Fatal(err)
	}
	fb := buf.Bytes()
	nl = bytes.IndexByte(fb, '\n')
	bad = append([]byte(nil), fb...)
	binary.LittleEndian.PutUint32(bad[nl+1+12:], 1)
	if err := decodeFrame2(bad); err == nil {
		t.Error("decode accepted a full frame with a delta input count")
	}
	// Mask length validation on the writer side.
	if _, err := WriteDeltaFrame2(&buf, ResultHeader{}, mask[:1], len(in), kept); err == nil {
		t.Error("writer accepted a short mask")
	}
}
