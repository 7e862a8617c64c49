package main

import (
	"bufio"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// promPage is one /metrics scrape: series key (name plus labels) to
// value.
type promPage map[string]float64

var scrapeClient = &http.Client{Timeout: 5 * time.Second}

func scrape(base string) (promPage, error) {
	resp, err := scrapeClient.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics: status %d", base, resp.StatusCode)
	}
	p := promPage{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("%s/metrics: bad line %q", base, line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("%s/metrics: bad line %q", base, line)
		}
		p[line[:i]] = v
	}
	return p, sc.Err()
}

// sum adds every series of one family.
func (p promPage) sum(family string) float64 {
	total := 0.0
	for k, v := range p {
		if k == family || strings.HasPrefix(k, family+"{") {
			total += v
		}
	}
	return total
}

// buckets returns a histogram family's cumulative bucket counts by upper
// bound. The exposition lists only non-empty buckets.
func (p promPage) buckets(family string) map[float64]float64 {
	out := map[float64]float64{}
	prefix := family + "_bucket{"
	for k, v := range p {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		i := strings.Index(k, `le="`)
		if i < 0 {
			continue
		}
		le := k[i+4 : len(k)-2]
		bound := math.Inf(1)
		if le != "+Inf" {
			b, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			bound = b
		}
		out[bound] += v
	}
	return out
}

// histQuantile is the q-quantile of the observations a histogram family
// gained between two scrapes, interpolated linearly inside the bucket
// (the buckets are obs.Histogram's: eight per octave, 12.5% wide).
func histQuantile(before, after promPage, family string, q float64) float64 {
	b, a := before.buckets(family), after.buckets(family)
	var bounds []float64
	for le := range a {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	cum := func(m map[float64]float64, le float64) float64 {
		// A bound missing from a page had no observations of its own, so
		// its cumulative count is that of the largest listed bound below.
		best, c := math.Inf(-1), 0.0
		for k, v := range m {
			if k <= le && k > best {
				best, c = k, v
			}
		}
		return c
	}
	delta := func(le float64) float64 { return cum(a, le) - cum(b, le) }
	if len(bounds) == 0 {
		return math.NaN()
	}
	total := delta(bounds[len(bounds)-1])
	if total <= 0 {
		return math.NaN()
	}
	target := q * total
	prev := 0.0
	for i, le := range bounds {
		d := delta(le)
		if d < target {
			prev = d
			continue
		}
		if math.IsInf(le, 1) {
			if i == 0 {
				return math.NaN()
			}
			return bounds[i-1]
		}
		if d == prev || le <= histUnderflow {
			// The underflow bucket has no lower bound: report its upper one.
			return le
		}
		lo := bucketLower(le)
		return lo + (target-prev)/(d-prev)*(le-lo)
	}
	return bounds[len(bounds)-1]
}

// histUnderflow is the upper bound of obs.Histogram's underflow bucket
// (2^-20 s, about 0.95 µs).
const histUnderflow = 0x1p-20

// bucketLower is the lower bound of the obs.Histogram bucket whose upper
// bound is u = 2^o·(1+k/8), k = 1..8.
func bucketLower(u float64) float64 {
	frac, exp := math.Frexp(u) // u = frac·2^exp, frac ∈ [0.5, 1)
	m := frac * 2
	if m == 1 { // k = 8: u = 2^(o+1)
		return u * 15 / 16
	}
	k := math.Round((m - 1) * 8)
	return math.Ldexp(1+(k-1)/8, exp-1)
}
