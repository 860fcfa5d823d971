// Package hpo implements the hyper-parameter-optimization layer of
// Sec. 4.1: search-space definition, a simplified TPE-style Bayesian
// optimizer and parameter-importance analysis — the W&B Sweeps
// substitute used to tune data-recipe hyper-parameters such as mixture
// weights and filter thresholds.
package hpo

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// Param is one search dimension, continuous in [Min, Max]. Integer
// dimensions round sampled values.
type Param struct {
	Name     string
	Min, Max float64
	Integer  bool
}

// Space is an ordered set of search dimensions.
type Space []Param

// clampRound applies the dimension's constraints to a raw value.
func (p Param) clampRound(v float64) float64 {
	if v < p.Min {
		v = p.Min
	}
	if v > p.Max {
		v = p.Max
	}
	if p.Integer {
		v = math.Round(v)
	}
	return v
}

// sample draws a uniform value.
func (p Param) sample(rng *rand.Rand) float64 {
	return p.clampRound(p.Min + rng.Float64()*(p.Max-p.Min))
}

// Trial is one objective evaluation.
type Trial struct {
	Params map[string]float64
	Value  float64
}

// Objective maps a parameter assignment to the value being MAXIMIZED.
type Objective func(params map[string]float64) float64

// Best returns the highest-value trial (zero Trial for empty input).
func Best(trials []Trial) Trial {
	var best Trial
	found := false
	for _, t := range trials {
		if !found || t.Value > best.Value {
			best = t
			found = true
		}
	}
	return best
}

// TPE runs a simplified Tree-structured Parzen Estimator: after nStartup
// random trials, it splits history into good (top gamma fraction) and bad
// sets, proposes candidates from Gaussian kernels around good points, and
// picks the candidate maximizing the good/bad density ratio.
func TPE(space Space, obj Objective, n int, seed int64) []Trial {
	const (
		nStartup   = 8
		gamma      = 0.25
		candidates = 24
	)
	rng := rand.New(rand.NewSource(seed))
	var trials []Trial
	for i := 0; i < n; i++ {
		var params map[string]float64
		if len(trials) < nStartup {
			params = map[string]float64{}
			for _, p := range space {
				params[p.Name] = p.sample(rng)
			}
		} else {
			params = tpePropose(space, trials, rng, gamma, candidates)
		}
		trials = append(trials, Trial{Params: params, Value: obj(params)})
	}
	return trials
}

func tpePropose(space Space, trials []Trial, rng *rand.Rand, gamma float64, candidates int) map[string]float64 {
	sorted := append([]Trial(nil), trials...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Value > sorted[j].Value })
	nGood := int(math.Ceil(gamma * float64(len(sorted))))
	if nGood < 1 {
		nGood = 1
	}
	good, bad := sorted[:nGood], sorted[nGood:]

	bestScore := math.Inf(-1)
	var bestParams map[string]float64
	for c := 0; c < candidates; c++ {
		params := map[string]float64{}
		score := 0.0
		for _, p := range space {
			// Sample around a random good point with a kernel width of 20%
			// of the range.
			center := good[rng.Intn(len(good))].Params[p.Name]
			width := (p.Max - p.Min) * 0.2
			v := p.clampRound(center + rng.NormFloat64()*width)
			params[p.Name] = v
			score += math.Log(kernelDensity(v, good, p, width)+1e-12) -
				math.Log(kernelDensity(v, bad, p, width)+1e-12)
		}
		if score > bestScore {
			bestScore = score
			bestParams = params
		}
	}
	return bestParams
}

func kernelDensity(v float64, trials []Trial, p Param, width float64) float64 {
	if len(trials) == 0 || width <= 0 {
		return 0
	}
	var d float64
	for _, t := range trials {
		z := (v - t.Params[p.Name]) / width
		d += math.Exp(-0.5 * z * z)
	}
	return d / float64(len(trials))
}

// Importance estimates per-parameter influence on the objective from a
// trial history: the squared Pearson correlation between the parameter
// and the value, normalized to sum to 1 — the Figure 3 "importance" view.
func Importance(space Space, trials []Trial) map[string]float64 {
	corr := Correlations(space, trials)
	out := make(map[string]float64, len(corr))
	var total float64
	for name, r := range corr {
		out[name] = r * r
		total += r * r
	}
	if total > 0 {
		for name := range out {
			out[name] /= total
		}
	}
	return out
}

// Correlations computes the Pearson correlation of each parameter with
// the objective value over a trial history.
func Correlations(space Space, trials []Trial) map[string]float64 {
	out := make(map[string]float64, len(space))
	n := float64(len(trials))
	if n < 2 {
		for _, p := range space {
			out[p.Name] = 0
		}
		return out
	}
	var meanV float64
	for _, t := range trials {
		meanV += t.Value
	}
	meanV /= n
	for _, p := range space {
		var meanX float64
		for _, t := range trials {
			meanX += t.Params[p.Name]
		}
		meanX /= n
		var cov, varX, varV float64
		for _, t := range trials {
			dx := t.Params[p.Name] - meanX
			dv := t.Value - meanV
			cov += dx * dv
			varX += dx * dx
			varV += dv * dv
		}
		if varX > 0 && varV > 0 {
			out[p.Name] = cov / math.Sqrt(varX*varV)
		} else {
			out[p.Name] = 0
		}
	}
	return out
}

// RenderAnalysis renders the Figure 3 style HPO report: best trial,
// parameter importance and correlations.
func RenderAnalysis(space Space, trials []Trial) string {
	var b strings.Builder
	best := Best(trials)
	fmt.Fprintf(&b, "trials: %d, best value: %.4f\n", len(trials), best.Value)
	b.WriteString("best params:\n")
	names := make([]string, 0, len(best.Params))
	for k := range best.Params {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&b, "  %-20s %.4f\n", k, best.Params[k])
	}
	imp := Importance(space, trials)
	corr := Correlations(space, trials)
	b.WriteString("parameter importance / correlation:\n")
	for _, p := range space {
		bar := strings.Repeat("#", int(imp[p.Name]*30))
		fmt.Fprintf(&b, "  %-20s %5.1f%% %-30s corr %+.3f\n", p.Name, imp[p.Name]*100, bar, corr[p.Name])
	}
	return b.String()
}
