package dist

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/dataset"
	"repro/internal/sample"
	"repro/internal/spill"
)

// This file is the dispatch wire's frame codec (DJF2): a binary
// columnar shard payload, so stage traffic never round-trips samples
// through JSON text.
//
// Frame layout (all little-endian), following one JSON header line:
//
//	offset 0   magic "DJF2"
//	offset 4   version (2)
//	offset 5   flags (bit 0: lzj block compression, bit 1: delta)
//	offset 6   reserved (2 bytes, zero)
//	offset 8   sample count (uint32; kept count in delta mode)
//	offset 12  input count (uint32; delta mode only, zero otherwise)
//
// The body is a sequence of fixed-size batches. A full batch is
//
//	u32 n | n x u32 text lengths | n x u32 aux lengths | texts | auxes
//
// where each aux is the sample's non-text JSON ({parts, meta, stats},
// empty for a bare-text sample). A delta body starts with a keep bitmap
// over the input shard (bit i, LSB-first, means input sample i
// survived) and its batches carry only a stats column for the kept
// samples:
//
//	u32 n | n x u32 stats lengths | stats objects
//
// With flag bit 0 set the body (everything after the 16-byte header) is
// chunked into lzj blocks: u32 encoded length, then the lzj bytes, raw
// block size capped at frame2BlockSize. The decoder validates every
// count, length, and the codec's own framing before allocating, so a
// truncated or corrupt frame surfaces as an error the scheduler can
// retry elsewhere — never a panic.
const (
	frame2HeaderSize  = 16
	frame2Version     = 2
	f2FlagCompress    = 1 << 0
	f2FlagDelta       = 1 << 1
	frame2BatchSize   = 512
	frame2BlockSize   = 256 << 10
	frame2MaxBlockEnc = 4 << 20
	// frame2MaxCount bounds the sample count a header may claim;
	// frame2MaxSampleLen matches the JSONL reader's line cap.
	frame2MaxCount     = 1 << 26
	frame2MaxSampleLen = 1 << 26
)

var frame2Magic = [4]byte{'D', 'J', 'F', '2'}

// frame2Codec is the shared lzj block compressor (same pooled codec the
// cache layer uses).
var frame2Codec = func() cache.Codec {
	c, err := cache.CodecByName("lzj")
	if err != nil {
		panic(err)
	}
	return c
}()

// WireStat accounts one stage exchange: bytes on the wire and their
// uncompressed (raw) equivalents, for the compression-ratio counters.
type WireStat struct {
	Delta   bool
	Sent    int64
	Recv    int64
	RawSent int64
	RawRecv int64
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// frame2Writer layers optional lzj block compression under the column
// writers and counts the raw (pre-compression) bytes flowing through.
type frame2Writer struct {
	dst      *bufio.Writer
	compress bool
	block    *[]byte // pooled raw-block buffer; nil unless compressing
	raw      int64
}

func newFrame2Writer(dst *bufio.Writer, compress bool) *frame2Writer {
	fw := &frame2Writer{dst: dst, compress: compress}
	if compress {
		fw.block = spill.GetFrameBuf(frame2BlockSize)
		*fw.block = (*fw.block)[:0]
	}
	return fw
}

func (fw *frame2Writer) Write(p []byte) (int, error) {
	fw.raw += int64(len(p))
	if !fw.compress {
		return fw.dst.Write(p)
	}
	total := len(p)
	for len(p) > 0 {
		room := frame2BlockSize - len(*fw.block)
		if room == 0 {
			if err := fw.flushBlock(); err != nil {
				return 0, err
			}
			room = frame2BlockSize
		}
		n := min(room, len(p))
		*fw.block = append(*fw.block, p[:n]...)
		p = p[n:]
	}
	return total, nil
}

// WriteString mirrors Write without forcing a []byte copy of sample
// texts on the uncompressed path.
func (fw *frame2Writer) WriteString(s string) (int, error) {
	fw.raw += int64(len(s))
	if !fw.compress {
		return fw.dst.WriteString(s)
	}
	total := len(s)
	for len(s) > 0 {
		room := frame2BlockSize - len(*fw.block)
		if room == 0 {
			if err := fw.flushBlock(); err != nil {
				return 0, err
			}
			room = frame2BlockSize
		}
		n := min(room, len(s))
		*fw.block = append(*fw.block, s[:n]...)
		s = s[n:]
	}
	return total, nil
}

func (fw *frame2Writer) flushBlock() error {
	if len(*fw.block) == 0 {
		return nil
	}
	enc, err := frame2Codec.Encode(*fw.block)
	if err != nil {
		return err
	}
	var lenb [4]byte
	binary.LittleEndian.PutUint32(lenb[:], uint32(len(enc)))
	if _, err := fw.dst.Write(lenb[:]); err != nil {
		return err
	}
	if _, err := fw.dst.Write(enc); err != nil {
		return err
	}
	*fw.block = (*fw.block)[:0]
	return nil
}

// close flushes the trailing partial block and releases the pooled
// buffer; discard releases without flushing (error paths).
func (fw *frame2Writer) close() error {
	var err error
	if fw.compress {
		err = fw.flushBlock()
	}
	fw.discard()
	return err
}

func (fw *frame2Writer) discard() {
	if fw.block != nil {
		spill.PutFrameBuf(fw.block)
		fw.block = nil
	}
}

func writeFrame2Common(w io.Writer, header any, flags byte, count, inCount int, body func(fw *frame2Writer) error) (wire, raw int64, err error) {
	hb, err := json.Marshal(header)
	if err != nil {
		return 0, 0, err
	}
	hb = append(hb, '\n')
	cw := &countWriter{w: w}
	bw := bufio.NewWriterSize(cw, 32<<10)
	if _, err := bw.Write(hb); err != nil {
		return cw.n, 0, err
	}
	var hdr [frame2HeaderSize]byte
	copy(hdr[:4], frame2Magic[:])
	hdr[4] = frame2Version
	hdr[5] = flags
	binary.LittleEndian.PutUint32(hdr[8:], uint32(count))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(inCount))
	if _, err := bw.Write(hdr[:]); err != nil {
		return cw.n, 0, err
	}
	fw := newFrame2Writer(bw, flags&f2FlagCompress != 0)
	if err := body(fw); err != nil {
		fw.discard()
		return cw.n, 0, err
	}
	if err := fw.close(); err != nil {
		return cw.n, 0, err
	}
	if err := bw.Flush(); err != nil {
		return cw.n, 0, err
	}
	return cw.n, int64(len(hb)) + frame2HeaderSize + fw.raw, nil
}

// WriteFrame2 writes header as one JSON line followed by the full-mode
// columnar frame for d. It returns the bytes put on the wire and their
// uncompressed equivalent.
func WriteFrame2(w io.Writer, header any, d *dataset.Dataset, compress bool) (wire, raw int64, err error) {
	var flags byte
	if compress {
		flags |= f2FlagCompress
	}
	return writeFrame2Common(w, header, flags, d.Len(), 0, func(fw *frame2Writer) error {
		return writeFullBatches(fw, d.Samples)
	})
}

// WriteDeltaFrame2 writes a delta response: the keep bitmap over
// inCount input samples plus one stats column entry per kept sample, in
// input order.
func WriteDeltaFrame2(w io.Writer, header any, mask []byte, inCount int, kept []*sample.Sample, compress bool) (wire, raw int64, err error) {
	if len(mask) != (inCount+7)/8 {
		return 0, 0, fmt.Errorf("dist: keep mask is %d bytes for %d inputs", len(mask), inCount)
	}
	flags := byte(f2FlagDelta)
	if compress {
		flags |= f2FlagCompress
	}
	return writeFrame2Common(w, header, flags, len(kept), inCount, func(fw *frame2Writer) error {
		if _, err := fw.Write(mask); err != nil {
			return err
		}
		return writeDeltaBatches(fw, kept)
	})
}

func writeFullBatches(fw *frame2Writer, samples []*sample.Sample) error {
	lensP := spill.GetFrameBuf(frame2BatchSize * 8)
	auxP := spill.GetFrameBuf(64 << 10)
	defer spill.PutFrameBuf(lensP)
	defer spill.PutFrameBuf(auxP)
	for off := 0; off < len(samples); off += frame2BatchSize {
		batch := samples[off:min(off+frame2BatchSize, len(samples))]
		n := len(batch)
		var nb [4]byte
		binary.LittleEndian.PutUint32(nb[:], uint32(n))
		if _, err := fw.Write(nb[:]); err != nil {
			return err
		}
		// The aux column encodes into scratch first so both length
		// arrays go out before either byte column.
		lens := (*lensP)[:8*n]
		aux := (*auxP)[:0]
		for i, s := range batch {
			if len(s.Text) > frame2MaxSampleLen {
				return fmt.Errorf("dist: sample text %d bytes exceeds frame cap", len(s.Text))
			}
			binary.LittleEndian.PutUint32(lens[i*4:], uint32(len(s.Text)))
			mark := len(aux)
			var err error
			aux, err = s.AppendJSONAux(aux)
			if err != nil {
				return err
			}
			if len(aux)-mark > frame2MaxSampleLen {
				return fmt.Errorf("dist: sample aux %d bytes exceeds frame cap", len(aux)-mark)
			}
			binary.LittleEndian.PutUint32(lens[4*n+i*4:], uint32(len(aux)-mark))
		}
		*auxP = aux[:0]
		if _, err := fw.Write(lens); err != nil {
			return err
		}
		for _, s := range batch {
			if _, err := fw.WriteString(s.Text); err != nil {
				return err
			}
		}
		if _, err := fw.Write(aux); err != nil {
			return err
		}
	}
	return nil
}

func writeDeltaBatches(fw *frame2Writer, kept []*sample.Sample) error {
	lensP := spill.GetFrameBuf(frame2BatchSize * 4)
	statsP := spill.GetFrameBuf(64 << 10)
	defer spill.PutFrameBuf(lensP)
	defer spill.PutFrameBuf(statsP)
	for off := 0; off < len(kept); off += frame2BatchSize {
		batch := kept[off:min(off+frame2BatchSize, len(kept))]
		n := len(batch)
		var nb [4]byte
		binary.LittleEndian.PutUint32(nb[:], uint32(n))
		if _, err := fw.Write(nb[:]); err != nil {
			return err
		}
		lens := (*lensP)[:4*n]
		stats := (*statsP)[:0]
		for i, s := range batch {
			mark := len(stats)
			if s.Stats.Len() > 0 {
				var err error
				stats, err = s.AppendStatsJSON(stats)
				if err != nil {
					return err
				}
			}
			if len(stats)-mark > frame2MaxSampleLen {
				return fmt.Errorf("dist: sample stats %d bytes exceeds frame cap", len(stats)-mark)
			}
			binary.LittleEndian.PutUint32(lens[i*4:], uint32(len(stats)-mark))
		}
		*statsP = stats[:0]
		if _, err := fw.Write(lens); err != nil {
			return err
		}
		if _, err := fw.Write(stats); err != nil {
			return err
		}
	}
	return nil
}

// Frame2 is one decoded frame body.
type Frame2 struct {
	// Data holds the decoded samples. In delta mode it carries one
	// stats-only sample per kept input, in input order.
	Data    *dataset.Dataset
	Delta   bool
	Mask    []byte // delta only: keep bitmap over InCount inputs
	InCount int    // delta only: inputs the mask covers
	Wire    int64  // bytes consumed off the stream (header line included)
	Raw     int64  // uncompressed equivalent of Wire
}

// Frame2Reader reads one frame: a JSON header line followed by the
// binary body, off a single buffered reader. Callers read the header
// first — error responses are header-only — then the body.
type Frame2Reader struct {
	br   *bufio.Reader
	wire int64
}

// NewFrame2Reader wraps r for one frame.
func NewFrame2Reader(r io.Reader) *Frame2Reader {
	return &Frame2Reader{br: bufio.NewReaderSize(r, 64<<10)}
}

// Header reads the JSON header line into v.
func (fr *Frame2Reader) Header(v any) error {
	line, err := fr.br.ReadBytes('\n')
	fr.wire += int64(len(line))
	if err != nil && (err != io.EOF || len(line) == 0) {
		return fmt.Errorf("dist: frame header: %w", err)
	}
	if err := json.Unmarshal(line, v); err != nil {
		return fmt.Errorf("dist: frame header: %w", err)
	}
	return nil
}

func (fr *Frame2Reader) readFull(p []byte) error {
	n, err := io.ReadFull(fr.br, p)
	fr.wire += int64(n)
	return err
}

// Body decodes the binary frame that follows the header line.
func (fr *Frame2Reader) Body() (*Frame2, error) {
	lineLen := fr.wire
	var hdr [frame2HeaderSize]byte
	if err := fr.readFull(hdr[:]); err != nil {
		return nil, fmt.Errorf("dist: frame2 header: %w", err)
	}
	if [4]byte(hdr[:4]) != frame2Magic {
		return nil, fmt.Errorf("dist: bad frame2 magic %q", hdr[:4])
	}
	if hdr[4] != frame2Version {
		return nil, fmt.Errorf("dist: unsupported frame2 version %d", hdr[4])
	}
	flags := hdr[5]
	if flags&^byte(f2FlagCompress|f2FlagDelta) != 0 {
		return nil, fmt.Errorf("dist: unknown frame2 flags %#x", flags)
	}
	if hdr[6] != 0 || hdr[7] != 0 {
		return nil, fmt.Errorf("dist: frame2 reserved bytes nonzero")
	}
	count := int(binary.LittleEndian.Uint32(hdr[8:]))
	inCount := int(binary.LittleEndian.Uint32(hdr[12:]))
	if count > frame2MaxCount || inCount > frame2MaxCount {
		return nil, fmt.Errorf("dist: frame2 claims %d/%d samples, cap %d", count, inCount, frame2MaxCount)
	}
	f := &Frame2{Delta: flags&f2FlagDelta != 0}
	body := &frame2Body{fr: fr, compress: flags&f2FlagCompress != 0}
	if f.Delta {
		if count > inCount {
			return nil, fmt.Errorf("dist: delta frame keeps %d of %d inputs", count, inCount)
		}
		f.InCount = inCount
		f.Mask = make([]byte, (inCount+7)/8)
		if err := body.readFull(f.Mask); err != nil {
			return nil, fmt.Errorf("dist: keep mask: %w", err)
		}
		pop := 0
		for _, b := range f.Mask {
			pop += bits.OnesCount8(b)
		}
		if pop != count {
			return nil, fmt.Errorf("dist: keep mask popcount %d, header says %d kept", pop, count)
		}
		if rem := inCount % 8; rem != 0 && f.Mask[len(f.Mask)-1]>>rem != 0 {
			return nil, fmt.Errorf("dist: keep mask has bits past input %d", inCount)
		}
		samples, err := readDeltaBatches(body, count)
		if err != nil {
			return nil, err
		}
		f.Data = dataset.New(samples)
	} else {
		if inCount != 0 {
			return nil, fmt.Errorf("dist: full frame with input count %d", inCount)
		}
		samples, err := readFullBatches(body, count)
		if err != nil {
			return nil, err
		}
		f.Data = dataset.New(samples)
	}
	f.Wire = fr.wire
	f.Raw = lineLen + frame2HeaderSize + body.raw
	return f, nil
}

// frame2Body serves logical body bytes, transparently reading through
// the lzj block layer when the frame is compressed.
type frame2Body struct {
	fr       *Frame2Reader
	compress bool
	buf      []byte
	off      int
	raw      int64
}

func (b *frame2Body) readFull(p []byte) error {
	if !b.compress {
		if err := b.fr.readFull(p); err != nil {
			return err
		}
		b.raw += int64(len(p))
		return nil
	}
	for len(p) > 0 {
		if b.off == len(b.buf) {
			if err := b.nextBlock(); err != nil {
				return err
			}
		}
		n := copy(p, b.buf[b.off:])
		b.off += n
		b.raw += int64(n)
		p = p[n:]
	}
	return nil
}

func (b *frame2Body) nextBlock() error {
	var lenb [4]byte
	if err := b.fr.readFull(lenb[:]); err != nil {
		return fmt.Errorf("dist: block length: %w", err)
	}
	encLen := int(binary.LittleEndian.Uint32(lenb[:]))
	if encLen == 0 || encLen > frame2MaxBlockEnc {
		return fmt.Errorf("dist: implausible block length %d", encLen)
	}
	encP := spill.GetFrameBuf(encLen)
	defer spill.PutFrameBuf(encP)
	enc := *encP
	if err := b.fr.readFull(enc); err != nil {
		return fmt.Errorf("dist: block body: %w", err)
	}
	// Blocks are written at most frame2BlockSize raw; validate the
	// codec's own claimed size before decoding so a corrupt length can
	// never drive a huge allocation.
	if encLen >= 8 {
		if want := binary.LittleEndian.Uint32(enc[4:]); int64(want) > frame2BlockSize {
			return fmt.Errorf("dist: block claims %d raw bytes, cap %d", want, frame2BlockSize)
		}
	}
	dec, err := frame2Codec.Decode(enc)
	if err != nil {
		return fmt.Errorf("dist: block decode: %w", err)
	}
	b.buf, b.off = dec, 0
	return nil
}

// readBatchCount reads and validates one batch's sample count, which
// must exactly match the writer's batching discipline.
func readBatchCount(b *frame2Body, remaining int) (int, error) {
	var nb [4]byte
	if err := b.readFull(nb[:]); err != nil {
		return 0, fmt.Errorf("dist: batch count: %w", err)
	}
	n := int(binary.LittleEndian.Uint32(nb[:]))
	if want := min(remaining, frame2BatchSize); n != want {
		return 0, fmt.Errorf("dist: batch count %d, want %d", n, want)
	}
	return n, nil
}

func readFullBatches(b *frame2Body, count int) ([]*sample.Sample, error) {
	samples := make([]*sample.Sample, 0, count)
	lensP := spill.GetFrameBuf(frame2BatchSize * 8)
	defer spill.PutFrameBuf(lensP)
	var scratch []byte
	var texts [frame2BatchSize]string
	for remaining := count; remaining > 0; {
		n, err := readBatchCount(b, remaining)
		if err != nil {
			return nil, err
		}
		lens := (*lensP)[:8*n]
		if err := b.readFull(lens); err != nil {
			return nil, fmt.Errorf("dist: column lengths: %w", err)
		}
		for i := 0; i < 2*n; i++ {
			if l := binary.LittleEndian.Uint32(lens[i*4:]); int64(l) > frame2MaxSampleLen {
				return nil, fmt.Errorf("dist: column entry %d bytes exceeds cap", l)
			}
		}
		for i := 0; i < n; i++ {
			l := int(binary.LittleEndian.Uint32(lens[i*4:]))
			if l > len(scratch) {
				scratch = make([]byte, l)
			}
			if err := b.readFull(scratch[:l]); err != nil {
				return nil, fmt.Errorf("dist: text column: %w", err)
			}
			texts[i] = string(scratch[:l])
		}
		for i := 0; i < n; i++ {
			l := int(binary.LittleEndian.Uint32(lens[4*n+i*4:]))
			s := &sample.Sample{}
			if l > 0 {
				if l > len(scratch) {
					scratch = make([]byte, l)
				}
				if err := b.readFull(scratch[:l]); err != nil {
					return nil, fmt.Errorf("dist: aux column: %w", err)
				}
				if err := s.UnmarshalJSON(scratch[:l]); err != nil {
					return nil, fmt.Errorf("dist: aux column: %w", err)
				}
			}
			s.Text = texts[i]
			samples = append(samples, s)
		}
		remaining -= n
	}
	return samples, nil
}

func readDeltaBatches(b *frame2Body, count int) ([]*sample.Sample, error) {
	samples := make([]*sample.Sample, 0, count)
	lensP := spill.GetFrameBuf(frame2BatchSize * 4)
	defer spill.PutFrameBuf(lensP)
	var scratch []byte
	for remaining := count; remaining > 0; {
		n, err := readBatchCount(b, remaining)
		if err != nil {
			return nil, err
		}
		lens := (*lensP)[:4*n]
		if err := b.readFull(lens); err != nil {
			return nil, fmt.Errorf("dist: stats lengths: %w", err)
		}
		for i := 0; i < n; i++ {
			l := int(binary.LittleEndian.Uint32(lens[i*4:]))
			if int64(l) > frame2MaxSampleLen {
				return nil, fmt.Errorf("dist: stats entry %d bytes exceeds cap", l)
			}
			s := &sample.Sample{}
			if l > 0 {
				if l > len(scratch) {
					scratch = make([]byte, l)
				}
				if err := b.readFull(scratch[:l]); err != nil {
					return nil, fmt.Errorf("dist: stats column: %w", err)
				}
				if err := s.DecodeStatsJSON(scratch[:l]); err != nil {
					return nil, fmt.Errorf("dist: stats column: %w", err)
				}
			}
			samples = append(samples, s)
		}
		remaining -= n
	}
	return samples, nil
}

// BuildKeepMask derives the keep bitmap mapping kept — an
// order-preserving pointer subset of in, as filter stages produce —
// back onto in. The second result is false when kept is not such a
// subset (the caller must then fall back to a full response).
func BuildKeepMask(in, kept []*sample.Sample) ([]byte, bool) {
	mask := make([]byte, (len(in)+7)/8)
	j := 0
	for i, s := range in {
		if j < len(kept) && kept[j] == s {
			mask[i/8] |= 1 << (i % 8)
			j++
		}
	}
	if j != len(kept) {
		return nil, false
	}
	return mask, true
}

// ApplyKeepMask selects the masked-in samples in input order. The mask
// must cover len(in) samples (validated at decode).
func ApplyKeepMask(in []*sample.Sample, mask []byte) []*sample.Sample {
	kept := make([]*sample.Sample, 0, len(in))
	for i, s := range in {
		if mask[i/8]&(1<<(i%8)) != 0 {
			kept = append(kept, s)
		}
	}
	return kept
}
