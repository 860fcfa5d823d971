// Package quality reproduces the GPT-3-style text quality classifiers of
// Sec. 5.2: a tokenizer feeding a HashingTF feature extractor and a binary
// logistic-regression model, with the "label" and "Pareto" keeping rules
// of the GPT-3 paper. Three variants mirror the paper's Table 5/6 setup:
// the English (GPT-3 reproduction), Chinese, and code classifiers.
package quality

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/text"
)

// HashingTF maps token streams to sparse term-frequency vectors of a fixed
// dimensionality via feature hashing — the PySpark HashingTF equivalent.
type HashingTF struct {
	// Dim is the feature space size (buckets).
	Dim int
}

// Transform returns the sparse TF vector of tokens.
func (h HashingTF) Transform(tokens []string) map[int]float64 {
	v := make(map[int]float64, len(tokens))
	for _, tkn := range tokens {
		v[h.bucket(tkn)]++
	}
	return v
}

func (h HashingTF) bucket(token string) int {
	// FNV-1a inlined; modulo the feature space.
	var hash uint64 = 14695981039346656037
	for i := 0; i < len(token); i++ {
		hash ^= uint64(token[i])
		hash *= 1099511628211
	}
	return int(hash % uint64(h.Dim))
}

// LogReg is a binary logistic regression model over hashed features.
type LogReg struct {
	weights []float64
	bias    float64
}

// TrainOptions configures logistic-regression training.
type TrainOptions struct {
	// Epochs over the training set (default 8).
	Epochs int
	// LearningRate for SGD (default 0.1).
	LearningRate float64
	// L2 regularization strength (default 1e-5).
	L2 float64
	// Seed for the shuffle order.
	Seed int64
}

func (o TrainOptions) withDefaults() TrainOptions {
	if o.Epochs == 0 {
		o.Epochs = 8
	}
	if o.LearningRate == 0 {
		o.LearningRate = 0.1
	}
	if o.L2 == 0 {
		o.L2 = 1e-5
	}
	return o
}

// TrainLogReg fits a logistic regression with SGD. features[i] is sparse;
// labels[i] is 0 or 1.
func TrainLogReg(dim int, features []map[int]float64, labels []int, o TrainOptions) *LogReg {
	o = o.withDefaults()
	m := &LogReg{weights: make([]float64, dim)}
	rng := rand.New(rand.NewSource(o.Seed))
	idx := make([]int, len(features))
	for i := range idx {
		idx[i] = i
	}
	lr := o.LearningRate
	for epoch := 0; epoch < o.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		for _, i := range idx {
			f := features[i]
			p := m.predictSparse(f)
			g := p - float64(labels[i])
			for j, x := range f {
				m.weights[j] -= lr * (g*x + o.L2*m.weights[j])
			}
			m.bias -= lr * g
		}
		lr *= 0.9
	}
	return m
}

// predictSparse sums in sorted index order: float addition is not
// associative, so map-order iteration would make scores (and keep
// verdicts near the threshold) nondeterministic across runs.
func (m *LogReg) predictSparse(f map[int]float64) float64 {
	idx := make([]int, 0, len(f))
	for j := range f {
		idx = append(idx, j)
	}
	sort.Ints(idx)
	z := m.bias
	for _, j := range idx {
		z += m.weights[j] * f[j]
	}
	return sigmoid(z)
}

// Predict returns P(label=1 | features).
func (m *LogReg) Predict(f map[int]float64) float64 { return m.predictSparse(f) }

func sigmoid(z float64) float64 {
	if z > 30 {
		return 1
	}
	if z < -30 {
		return 0
	}
	return 1 / (1 + math.Exp(-z))
}

// Kind selects a classifier variant.
type Kind string

// Classifier variants, matching Table 6.
const (
	KindGPT3    Kind = "gpt3"    // English, standard tokenizer
	KindChinese Kind = "chinese" // character tokens (SentencePiece stand-in)
	KindCode    Kind = "code"    // identifier-aware tokens
)

// tokenizeFor returns the tokenizer for a classifier kind. Normalized TF
// (dividing by length) keeps long documents from saturating scores.
func tokenizeFor(kind Kind) func(string) []string {
	switch kind {
	case KindChinese:
		return func(s string) []string { return text.CharNGrams(s, 1) }
	case KindCode:
		return func(s string) []string { return text.Words(s) }
	default:
		return text.WordsLower
	}
}

// Classifier scores text quality in [0, 1].
type Classifier struct {
	kind     Kind
	tf       HashingTF
	model    *LogReg
	tokenize func(string) []string
}

// Train fits a classifier of the given kind on positive (high-quality)
// and negative (low-quality) example texts.
func Train(kind Kind, positives, negatives []string, o TrainOptions) *Classifier {
	tok := tokenizeFor(kind)
	tf := HashingTF{Dim: 1 << 18}
	features := make([]map[int]float64, 0, len(positives)+len(negatives))
	labels := make([]int, 0, cap(features))
	for _, s := range positives {
		features = append(features, normalize(tf.Transform(tok(s))))
		labels = append(labels, 1)
	}
	for _, s := range negatives {
		features = append(features, normalize(tf.Transform(tok(s))))
		labels = append(labels, 0)
	}
	return &Classifier{
		kind:     kind,
		tf:       tf,
		model:    TrainLogReg(tf.Dim, features, labels, o),
		tokenize: tok,
	}
}

// normalize scales the TF vector by total count. Summation runs in sorted
// index order for determinism (see predictSparse).
func normalize(f map[int]float64) map[int]float64 {
	idx := make([]int, 0, len(f))
	for j := range f {
		idx = append(idx, j)
	}
	sort.Ints(idx)
	var total float64
	for _, j := range idx {
		total += f[j]
	}
	if total == 0 {
		return f
	}
	for _, j := range idx {
		f[j] /= total * 0.01 // scale so typical docs produce usable logits
	}
	return f
}

// Kind returns the classifier variant.
func (c *Classifier) Kind() Kind { return c.kind }

// QualityScore returns the model's probability that text is
// high-quality.
func (c *Classifier) QualityScore(s string) float64 {
	return c.model.Predict(normalize(c.tf.Transform(c.tokenize(s))))
}

// KeepMethod selects the document keeping rule of the GPT-3 paper.
type KeepMethod int

// Keeping rules (Table 4).
const (
	// KeepLabel keeps documents with score > 0.5.
	KeepLabel KeepMethod = iota
	// KeepPareto keeps documents with score > 1 - pareto(alpha=9), the
	// noisy threshold used by GPT-3 to retain a tail of lower-scored docs.
	KeepPareto
)

// paretoAlpha matches np.random.pareto(9) in the paper.
const paretoAlpha = 9.0

// Keep applies the keeping rule. rng drives the Pareto draw (pass a seeded
// source for reproducibility).
func (c *Classifier) Keep(s string, method KeepMethod, rng *rand.Rand) bool {
	score := c.QualityScore(s)
	switch method {
	case KeepPareto:
		// np.random.pareto(a) samples (1-U)^(-1/a) - 1 (Lomax).
		u := rng.Float64()
		draw := math.Pow(1-u, -1/paretoAlpha) - 1
		return score > 1-draw
	default:
		return score > 0.5
	}
}

// KeepRatio applies the rule to every text and reports the kept fraction.
func (c *Classifier) KeepRatio(texts []string, method KeepMethod, seed int64) float64 {
	if len(texts) == 0 {
		return 0
	}
	rng := rand.New(rand.NewSource(seed))
	kept := 0
	for _, s := range texts {
		if c.Keep(s, method, rng) {
			kept++
		}
	}
	return float64(kept) / float64(len(texts))
}

// Metrics holds binary-classification quality numbers.
type Metrics struct {
	Precision, Recall, F1, Accuracy float64
}

// Evaluate scores the classifier on labeled texts (1 = high quality).
func (c *Classifier) Evaluate(texts []string, labels []int) Metrics {
	var tp, fp, fn, tn float64
	for i, s := range texts {
		pred := 0
		if c.QualityScore(s) > 0.5 {
			pred = 1
		}
		switch {
		case pred == 1 && labels[i] == 1:
			tp++
		case pred == 1 && labels[i] == 0:
			fp++
		case pred == 0 && labels[i] == 1:
			fn++
		default:
			tn++
		}
	}
	m := Metrics{}
	if tp+fp > 0 {
		m.Precision = tp / (tp + fp)
	}
	if tp+fn > 0 {
		m.Recall = tp / (tp + fn)
	}
	if m.Precision+m.Recall > 0 {
		m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	if total := tp + fp + fn + tn; total > 0 {
		m.Accuracy = (tp + tn) / total
	}
	return m
}

// Split partitions texts+labels into train/eval with the given ratio
// (e.g. 0.8 for the paper's 4:1), shuffled deterministically by seed.
func Split(texts []string, labels []int, trainRatio float64, seed int64) (trainX []string, trainY []int, evalX []string, evalY []int) {
	rng := rand.New(rand.NewSource(seed))
	idx := make([]int, len(texts))
	for i := range idx {
		idx[i] = i
	}
	rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
	cut := int(float64(len(idx)) * trainRatio)
	for i, j := range idx {
		if i < cut {
			trainX = append(trainX, texts[j])
			trainY = append(trainY, labels[j])
		} else {
			evalX = append(evalX, texts[j])
			evalY = append(evalY, labels[j])
		}
	}
	return trainX, trainY, evalX, evalY
}
