package spill

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Frame layout (all little-endian):
//
//	offset 0   magic "DJS1"
//	offset 4   version (1)
//	offset 5   flags (bit 0: values column present)
//	offset 6   reserved (2 bytes, zero)
//	offset 8   record count (uint32)
//	offset 12  reserved (4 bytes, zero)
//	offset 16  keys column: count x uint64
//	...        values column: count x uint64 (only if flag bit 0)
//
// Columns rather than interleaved records keep merge readers sequential
// per column and let a probe binary-search a block of keys without
// reading the values beside them.
const (
	frameHeaderSize = 16
	frameVersion    = 1
	flagHasVals     = 1 << 0
)

var frameMagic = [4]byte{'D', 'J', 'S', '1'}

// framePool recycles encode/decode scratch buffers.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// GetFrameBuf returns a pooled byte buffer resliced to n bytes. It backs
// the spill codec's own frames and is shared with the dist wire codec,
// which reuses the same pool for its column scratch. Pair every call
// with PutFrameBuf.
func GetFrameBuf(n int) *[]byte {
	bp := framePool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// PutFrameBuf returns a buffer obtained from GetFrameBuf to the pool.
func PutFrameBuf(bp *[]byte) { framePool.Put(bp) }

func getFrameBuf(n int) *[]byte { return GetFrameBuf(n) }
func putFrameBuf(bp *[]byte)    { PutFrameBuf(bp) }

// frameSize returns the encoded size of a frame holding count records.
func frameSize(count int, withVals bool) int {
	n := frameHeaderSize + count*8
	if withVals {
		n += count * 8
	}
	return n
}

// putFrameHeader writes the 16-byte header into buf.
func putFrameHeader(buf []byte, count int, withVals bool) {
	copy(buf[0:4], frameMagic[:])
	buf[4] = frameVersion
	if withVals {
		buf[5] = flagHasVals
	} else {
		buf[5] = 0
	}
	buf[6], buf[7] = 0, 0
	binary.LittleEndian.PutUint32(buf[8:12], uint32(count))
	for i := 12; i < frameHeaderSize; i++ {
		buf[i] = 0
	}
}

// parseFrameHeader validates buf's header and returns the record count
// and whether a values column follows the keys column.
func parseFrameHeader(buf []byte) (count int, withVals bool, err error) {
	if len(buf) < frameHeaderSize {
		return 0, false, fmt.Errorf("spill: short frame header (%d bytes)", len(buf))
	}
	if [4]byte(buf[0:4]) != frameMagic {
		return 0, false, fmt.Errorf("spill: bad frame magic %q", buf[0:4])
	}
	if buf[4] != frameVersion {
		return 0, false, fmt.Errorf("spill: unsupported frame version %d", buf[4])
	}
	count = int(binary.LittleEndian.Uint32(buf[8:12]))
	withVals = buf[5]&flagHasVals != 0
	return count, withVals, nil
}

// encodePairFrame encodes pairs as a key+value frame into a pooled
// buffer. The caller must putFrameBuf the returned buffer after writing.
func encodePairFrame(pairs []Pair) *[]byte {
	bp := getFrameBuf(frameSize(len(pairs), true))
	buf := *bp
	putFrameHeader(buf, len(pairs), true)
	keyOff := frameHeaderSize
	valOff := keyOff + len(pairs)*8
	for i, p := range pairs {
		binary.LittleEndian.PutUint64(buf[keyOff+i*8:], p.K)
		binary.LittleEndian.PutUint64(buf[valOff+i*8:], p.V)
	}
	return bp
}

// decodePairFrames parses a concatenation of key+value frames, appending
// every record to into.
func decodePairFrames(data []byte, into []Pair) ([]Pair, error) {
	for len(data) > 0 {
		count, withVals, err := parseFrameHeader(data)
		if err != nil {
			return into, err
		}
		if !withVals {
			return into, fmt.Errorf("spill: key-only frame where pairs expected")
		}
		size := frameSize(count, true)
		if len(data) < size {
			return into, fmt.Errorf("spill: truncated frame (%d < %d bytes)", len(data), size)
		}
		keyOff := frameHeaderSize
		valOff := keyOff + count*8
		for i := 0; i < count; i++ {
			into = append(into, Pair{
				K: binary.LittleEndian.Uint64(data[keyOff+i*8:]),
				V: binary.LittleEndian.Uint64(data[valOff+i*8:]),
			})
		}
		data = data[size:]
	}
	return into, nil
}

// decodeU64s decodes n little-endian uint64s from buf into out.
func decodeU64s(buf []byte, out []uint64) []uint64 {
	for i := 0; i+8 <= len(buf); i += 8 {
		out = append(out, binary.LittleEndian.Uint64(buf[i:]))
	}
	return out
}
