package dedup

import "math"

const (
	// maxSignature is the largest signature derived banding uses (b·r),
	// and the largest one a document computes on the stack.
	maxSignature = 128
	// minDetect is the detection probability derived banding guarantees
	// a pair exactly at jaccard_threshold.
	minDetect = 0.9
)

// sCurve is the probability that a pair of Jaccard similarity j collides
// in at least one of b bands of r rows: 1 − (1 − jʳ)ᵇ.
func sCurve(j float64, b, r int) float64 {
	return 1 - math.Pow(1-math.Pow(j, float64(r)), float64(b))
}

// candidateMass is ∫₀ᵗ S(J) dJ, the share of below-threshold pairs that
// become candidates only to be rejected by verification (Simpson's rule;
// the integrand is smooth and the banding choices differ by far more than
// the rule's error).
func candidateMass(t float64, b, r int) float64 {
	const n = 64
	h := t / n
	sum := sCurve(0, b, r) + sCurve(t, b, r)
	for i := 1; i < n; i++ {
		w := 2.0
		if i%2 == 1 {
			w = 4
		}
		sum += w * sCurve(float64(i)*h, b, r)
	}
	return sum * h / 3
}

// deriveBanding fills in unset (zero) bands and rows_per_band for a
// Jaccard threshold t in (0, 1]. Verification is exact, so the rule is
// recall-first: among bandings with b·r ≤ maxSignature that detect a pair
// at the threshold with probability ≥ minDetect, it picks the one with the
// least candidate mass below the threshold. A set value is kept and only
// the other is searched, from 1 to max(1, maxSignature / the set value),
// so with both set the given pair is the one candidate. When no
// candidate reaches minDetect, the most sensitive one wins.
func deriveBanding(t float64, bands, rows int) (int, int) {
	rLo, rHi := 1, maxSignature
	if rows > 0 {
		rLo, rHi = rows, rows
	}
	bestB, bestR := 0, 0
	bestMass, bestS := math.Inf(1), -1.0
	for r := rLo; r <= rHi; r++ {
		bLo, bHi := 1, max(1, maxSignature/r)
		if bands > 0 {
			bLo, bHi = bands, bands
		}
		for b := bLo; b <= bHi; b++ {
			s := sCurve(t, b, r)
			if s >= minDetect {
				// The least b that reaches the target has the least
				// mass for this r: S grows with b at every J.
				if m := candidateMass(t, b, r); m < bestMass {
					bestB, bestR, bestMass, bestS = b, r, m, s
				}
				break
			}
			if bestS < minDetect && s > bestS {
				bestB, bestR, bestS = b, r, s
			}
		}
	}
	return bestB, bestR
}
