// Package lm implements a word n-gram language model with stupid backoff —
// the stand-in for the KenLM perplexity models of the paper's
// perplexity_filter, and the trainable "reference model" used by the
// simulated LLM training/evaluation loop (internal/llm).
package lm

import (
	"math"
	"strings"
)

// bosToken pads the left context of each document.
const bosToken = "<s>"

// Model is an order-N language model with stupid-backoff smoothing
// (Brants et al.): P(w|ctx) backs off to shorter contexts scaled by alpha,
// bottoming out in a unigram distribution with add-one smoothing over the
// observed vocabulary.
type Model struct {
	order  int
	alpha  float64
	counts []map[string]int // counts[k] holds (k+1)-gram counts
	ctx    []map[string]int // ctx[k] holds k-gram context totals for (k+1)-grams
	vocab  map[string]struct{}
	tokens int
}

// NewModel creates an untrained model of the given order (2–5 are
// sensible; order is clamped to at least 1). Alpha is the stupid-backoff
// factor, 0.4 by convention.
func NewModel(order int) *Model {
	if order < 1 {
		order = 1
	}
	m := &Model{
		order:  order,
		alpha:  0.4,
		counts: make([]map[string]int, order),
		ctx:    make([]map[string]int, order),
		vocab:  make(map[string]struct{}),
	}
	for k := 0; k < order; k++ {
		m.counts[k] = make(map[string]int)
		m.ctx[k] = make(map[string]int)
	}
	return m
}

// Order returns the model order.
func (m *Model) Order() int { return m.order }

// TokensSeen returns the number of training tokens consumed.
func (m *Model) TokensSeen() int { return m.tokens }

// VocabSize returns the observed vocabulary size.
func (m *Model) VocabSize() int { return len(m.vocab) }

// TrainWords feeds one document's word stream into the model.
func (m *Model) TrainWords(words []string) {
	if len(words) == 0 {
		return
	}
	padded := make([]string, 0, len(words)+m.order-1)
	for i := 0; i < m.order-1; i++ {
		padded = append(padded, bosToken)
	}
	padded = append(padded, words...)
	for i := m.order - 1; i < len(padded); i++ {
		w := padded[i]
		m.vocab[w] = struct{}{}
		m.tokens++
		for k := 0; k < m.order; k++ {
			// (k+1)-gram ending at i.
			start := i - k
			gram := strings.Join(padded[start:i+1], " ")
			m.counts[k][gram]++
			if k > 0 {
				ctx := strings.Join(padded[start:i], " ")
				m.ctx[k][ctx]++
			}
		}
	}
}

// prob returns the stupid-backoff score of word w given the context words
// (the last order-1 tokens before w).
func (m *Model) prob(context []string, w string) float64 {
	// Walk from the longest available context down to unigrams.
	for k := min(len(context), m.order-1); k >= 1; k-- {
		ctx := strings.Join(context[len(context)-k:], " ")
		gram := ctx + " " + w
		if c := m.counts[k][gram]; c > 0 {
			denom := m.ctx[k][ctx]
			if denom > 0 {
				return math.Pow(m.alpha, float64(min(len(context), m.order-1)-k)) *
					float64(c) / float64(denom)
			}
		}
	}
	// Unigram with add-one smoothing over the open vocabulary.
	c := m.counts[0][w]
	backoffs := min(len(context), m.order-1)
	return math.Pow(m.alpha, float64(backoffs)) *
		float64(c+1) / float64(m.tokens+len(m.vocab)+1)
}

// LogProbWords returns the total log2 probability and token count of a
// word stream.
func (m *Model) LogProbWords(words []string) (logProb float64, n int) {
	if len(words) == 0 || m.tokens == 0 {
		return 0, 0
	}
	padded := make([]string, 0, len(words)+m.order-1)
	for i := 0; i < m.order-1; i++ {
		padded = append(padded, bosToken)
	}
	padded = append(padded, words...)
	for i := m.order - 1; i < len(padded); i++ {
		p := m.prob(padded[max(0, i-m.order+1):i], padded[i])
		logProb += math.Log2(p)
		n++
	}
	return logProb, n
}

// PerplexityWords computes 2^(-logProb/n) for a word stream. An
// untrained model returns +Inf; empty input returns 0.
func (m *Model) PerplexityWords(words []string) float64 {
	if len(words) == 0 {
		return 0
	}
	if m.tokens == 0 {
		return math.Inf(1)
	}
	logProb, n := m.LogProbWords(words)
	return math.Pow(2, -logProb/float64(n))
}

// CrossEntropyWords returns bits per token of the stream under the model.
func (m *Model) CrossEntropyWords(words []string) float64 {
	if len(words) == 0 || m.tokens == 0 {
		return math.Inf(1)
	}
	logProb, n := m.LogProbWords(words)
	return -logProb / float64(n)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
