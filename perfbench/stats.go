package main

import (
	"math"
	"sort"
)

// midMean is the mean of the sorted xs ranked between the 40th and 60th
// percentiles: the p50 of the pooled four-shape mix. The shapes' latencies
// form separated clusters and the pooled median falls in the gap between
// the second and the third, where any single-rank estimate is set by the
// extreme tails of two clusters and moved by 15-20% between runs. The
// central fifth averages the upper part of one cluster with the lower
// part of the next; on one unimodal cluster it is the median.
func midMean(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	lo, hi := int(0.4*float64(n)), int(math.Ceil(0.6*float64(n)))
	if hi <= lo {
		return quantile(xs, 0.5)
	}
	var sum float64
	for _, x := range xs[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// quantile is the Harrell–Davis estimate of the q-quantile of xs, which
// must be sorted: a weighted mean of all order statistics, the weights
// being the Beta((n+1)q, (n+1)(1-q)) probability of each rank. It varies
// less between runs than the single order statistic the plain sample
// quantile picks.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	switch n {
	case 0:
		return 0
	case 1:
		return xs[0]
	}
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	// Ranks more than 12 standard deviations away weigh nothing that
	// float64 can hold next to the rest.
	center, sd := q*float64(n), math.Sqrt(q*(1-q)*float64(n))+1
	lo, hi := max(0, int(center-12*sd)), min(n, int(center+12*sd)+1)
	first := betaInc(a, b, float64(lo)/float64(n))
	prev, sum := first, 0.0
	for i := lo; i < hi; i++ {
		cur := betaInc(a, b, float64(i+1)/float64(n))
		sum += (cur - prev) * xs[i]
		prev = cur
	}
	return sum / (prev - first)
}

// betaInc is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes §6.4.
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaFraction(a, b, x) / a
	}
	return 1 - front*betaFraction(b, a, 1-x)/b
}

func betaFraction(a, b, x float64) float64 {
	const eps, tiny = 1e-15, 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 10000; m++ {
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		step := d * c
		h *= step
		if math.Abs(step-1) < eps {
			break
		}
	}
	return h
}

func sortedValues(samples []sample, f func(*sample) float64) []float64 {
	xs := make([]float64, len(samples))
	for i := range samples {
		xs[i] = f(&samples[i])
	}
	sort.Float64s(xs)
	return xs
}

// sortFloats returns a sorted copy of xs.
func sortFloats(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortFloats(xs), 0.5) }
