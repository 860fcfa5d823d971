// Package tokenizer implements a trainable byte-pair-encoding (BPE)
// subword tokenizer — the stand-in for the SentencePiece / GPT-NeoX
// tokenizers the paper uses for token counting (Table 7) and the
// token_num_filter.
package tokenizer

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// endOfWord marks word boundaries inside the merge alphabet.
const endOfWord = "</w>"

// BPE is a trained byte-pair-encoding tokenizer. The zero value is not
// usable; train with Train or load with Load.
type BPE struct {
	// merges maps a candidate pair "a b" to its merge priority (lower
	// merges first).
	merges map[string]int
	// vocab maps token string to id.
	vocab map[string]int
	// inv maps id back to token.
	inv []string
}

// Train learns numMerges merge operations from the corpus text. Training
// follows the classic BPE procedure: start from characters (plus an
// end-of-word marker), repeatedly merge the most frequent adjacent pair.
func Train(corpus []string, numMerges int) *BPE {
	// Word frequency table.
	wordFreq := map[string]int{}
	for _, doc := range corpus {
		for _, w := range strings.Fields(strings.ToLower(doc)) {
			wordFreq[w]++
		}
	}
	// Represent each word as a symbol sequence.
	type entry struct {
		syms []string
		freq int
	}
	entries := make([]entry, 0, len(wordFreq))
	words := make([]string, 0, len(wordFreq))
	for w := range wordFreq {
		words = append(words, w)
	}
	sort.Strings(words) // determinism
	for _, w := range words {
		syms := make([]string, 0, len(w)+1)
		for _, r := range w {
			syms = append(syms, string(r))
		}
		syms = append(syms, endOfWord)
		entries = append(entries, entry{syms: syms, freq: wordFreq[w]})
	}

	merges := make(map[string]int, numMerges)
	for m := 0; m < numMerges; m++ {
		// Count adjacent pairs.
		pairCount := map[string]int{}
		for _, e := range entries {
			for i := 0; i+1 < len(e.syms); i++ {
				pairCount[e.syms[i]+" "+e.syms[i+1]] += e.freq
			}
		}
		if len(pairCount) == 0 {
			break
		}
		// Most frequent pair, ties broken lexicographically for
		// determinism.
		best, bestN := "", -1
		for p, n := range pairCount {
			if n > bestN || (n == bestN && p < best) {
				best, bestN = p, n
			}
		}
		if bestN < 2 {
			break // no productive merges left
		}
		merges[best] = m
		parts := strings.SplitN(best, " ", 2)
		a, b := parts[0], parts[1]
		merged := a + b
		for idx := range entries {
			e := &entries[idx]
			out := e.syms[:0]
			i := 0
			for i < len(e.syms) {
				if i+1 < len(e.syms) && e.syms[i] == a && e.syms[i+1] == b {
					out = append(out, merged)
					i += 2
					continue
				}
				out = append(out, e.syms[i])
				i++
			}
			e.syms = out
		}
	}

	// Build the vocabulary: all symbols surviving in entries plus single
	// characters (open vocabulary fallback handled at encode time).
	vocabSet := map[string]struct{}{endOfWord: {}}
	for _, e := range entries {
		for _, s := range e.syms {
			vocabSet[s] = struct{}{}
		}
	}
	toks := make([]string, 0, len(vocabSet))
	for tkn := range vocabSet {
		toks = append(toks, tkn)
	}
	sort.Strings(toks)
	vocab := make(map[string]int, len(toks))
	for i, tkn := range toks {
		vocab[tkn] = i
	}
	return &BPE{merges: merges, vocab: vocab, inv: toks}
}

// VocabSize returns the number of known tokens.
func (b *BPE) VocabSize() int { return len(b.vocab) }

// encodeWord applies the learned merges to one lower-cased word.
func (b *BPE) encodeWord(w string) []string {
	syms := make([]string, 0, len(w)+1)
	for _, r := range w {
		syms = append(syms, string(r))
	}
	syms = append(syms, endOfWord)
	for {
		// Find the highest-priority applicable merge.
		bestIdx, bestRank := -1, 1<<31
		for i := 0; i+1 < len(syms); i++ {
			if rank, ok := b.merges[syms[i]+" "+syms[i+1]]; ok && rank < bestRank {
				bestIdx, bestRank = i, rank
			}
		}
		if bestIdx < 0 {
			return syms
		}
		merged := syms[bestIdx] + syms[bestIdx+1]
		syms = append(syms[:bestIdx], append([]string{merged}, syms[bestIdx+2:]...)...)
	}
}

// Tokenize returns the subword token strings of text.
func (b *BPE) Tokenize(text string) []string {
	var out []string
	for _, w := range strings.Fields(strings.ToLower(text)) {
		out = append(out, b.encodeWord(w)...)
	}
	return out
}

// Encode returns token ids; characters unseen in training map to -1
// (unknown).
func (b *BPE) Encode(text string) []int {
	toks := b.Tokenize(text)
	ids := make([]int, len(toks))
	for i, tkn := range toks {
		if id, ok := b.vocab[tkn]; ok {
			ids[i] = id
		} else {
			ids[i] = -1
		}
	}
	return ids
}

// Decode reassembles text from token ids (words separated by spaces).
func (b *BPE) Decode(ids []int) string {
	var sb strings.Builder
	for _, id := range ids {
		if id < 0 || id >= len(b.inv) {
			sb.WriteString("�")
			continue
		}
		sb.WriteString(b.inv[id])
	}
	return strings.TrimSpace(strings.ReplaceAll(sb.String(), endOfWord, " "))
}

// CountTokens returns the number of tokens text encodes to.
func (b *BPE) CountTokens(text string) int { return len(b.Tokenize(text)) }

// persisted is the on-disk form.
type persisted struct {
	Merges map[string]int `json:"merges"`
	Vocab  []string       `json:"vocab"`
}

// Save writes the tokenizer model to path.
func (b *BPE) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(persisted{Merges: b.merges, Vocab: b.inv}); err != nil {
		return err
	}
	return w.Flush()
}

// Load reads a tokenizer model saved by Save.
func Load(path string) (*BPE, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// Read parses a persisted model from r.
func Read(r io.Reader) (*BPE, error) {
	var p persisted
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("tokenizer: %w", err)
	}
	vocab := make(map[string]int, len(p.Vocab))
	for i, tkn := range p.Vocab {
		vocab[tkn] = i
	}
	return &BPE{merges: p.Merges, vocab: vocab, inv: p.Vocab}, nil
}
