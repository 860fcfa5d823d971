package text

import "sync"

// Segmenter owns reusable token buffers so the per-sample hot path can
// segment words, lines and sentences without allocating: each call
// reuses the buffer of the previous one. The returned slices alias the
// segmenter's buffers and are valid only until the next call of the same
// method (or Release); callers that need the tokens to outlive the
// segmenter must copy them.
//
// A Segmenter is not safe for concurrent use; get one per goroutine from
// the pool (GetSegmenter / PutSegmenter).
type Segmenter struct {
	words     tokenBuf
	wordsLow  tokenBuf
	lines     tokenBuf
	sentences tokenBuf
}

// tokenBuf is one reusable token slice plus the longest length it has
// held since the last PutSegmenter: only that prefix can hold substrings,
// so only that prefix needs clearing.
type tokenBuf struct {
	s  []string
	hw int
}

func (b *tokenBuf) set(s []string) []string {
	b.s, b.hw = s, max(b.hw, len(s))
	return s
}

// Words segments s into word tokens, reusing the segmenter's buffer.
func (g *Segmenter) Words(s string) []string {
	return g.words.set(WordsInto(s, g.words.s[:0]))
}

// WordsLower segments s into lower-cased word tokens, reusing the
// segmenter's buffer.
func (g *Segmenter) WordsLower(s string) []string {
	return g.wordsLow.set(WordsLowerInto(s, g.wordsLow.s[:0]))
}

// Lines splits s into lines, reusing the segmenter's buffer.
func (g *Segmenter) Lines(s string) []string {
	return g.lines.set(LinesInto(s, g.lines.s[:0]))
}

// Sentences splits s into sentences, reusing the segmenter's buffer.
func (g *Segmenter) Sentences(s string) []string {
	return g.sentences.set(SentencesInto(s, g.sentences.s[:0]))
}

var segmenterPool = sync.Pool{New: func() any { return &Segmenter{} }}

// GetSegmenter returns a pooled segmenter.
func GetSegmenter() *Segmenter { return segmenterPool.Get().(*Segmenter) }

// PutSegmenter returns g to the pool, clearing parked token substrings
// so they don't pin their source texts alive. The slices it handed out
// must no longer be referenced.
func PutSegmenter(g *Segmenter) {
	for _, b := range []*tokenBuf{&g.words, &g.wordsLow, &g.lines, &g.sentences} {
		clear(b.s[:b.hw])
		b.s, b.hw = b.s[:0], 0
	}
	segmenterPool.Put(g)
}
