package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one named number with its unit. A timing summarised from
// samples also carries the sample count and the highest percentile the
// tail rule allows (see tailPercentile).
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Tail  string  `json:"tail,omitempty"`
	TailV float64 `json:"tail_value,omitempty"`
}

// tailPercentile returns the highest of p90, p99, p99.9 and p99.99 that
// still has at least ten samples beyond it in a set of n samples, and
// its label; ok is false below 100 samples, where no tail percentile is
// reportable.
func tailPercentile(n int) (p float64, label string, ok bool) {
	steps := []struct {
		p     float64
		label string
		need  int
	}{
		{0.9999, "p99.99", 100000},
		{0.999, "p99.9", 10000},
		{0.99, "p99", 1000},
		{0.9, "p90", 100},
	}
	for _, s := range steps {
		if n >= s.need {
			return s.p, s.label, true
		}
	}
	return 0, "", false
}

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// samples is a set of timings in one unit.
type samples []float64

func (s samples) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// median returns the sample median (NaN when empty).
func (s samples) median() float64 { return quantile(s.sorted(), 0.5) }

// at returns the q-quantile.
func (s samples) at(q float64) float64 { return quantile(s.sorted(), q) }

// timing summarises s as a median metric with the tail rule applied.
func (s samples) timing(name, unit string) metric {
	m := metric{Name: name, Unit: unit, N: len(s), Value: s.median()}
	if p, label, ok := tailPercentile(len(s)); ok {
		m.Tail, m.TailV = label, s.at(p)
	}
	return m
}

// percentileMetric reports the q-quantile of s under a fixed name (for
// metrics such as ack_p99_ms whose percentile is part of the name),
// still printing the sample count.
func (s samples) percentileMetric(name, unit string, q float64) metric {
	return metric{Name: name, Unit: unit, N: len(s), Value: s.at(q)}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// rssSampleEvery is how often rssDuring reads the resident set.
const rssSampleEvery = 2 * time.Millisecond

// rssReadings are resident-set readings, in MB, taken while measured
// units ran.
type rssReadings struct {
	peaks    samples // largest reading of each unit
	sum      float64
	readings int
}

// mean is the average of every reading: the footprint over the timed
// phase. It is much steadier than a peak, which depends on where the
// garbage collector happened to run.
func (r *rssReadings) mean() float64 { return r.sum / float64(r.readings) }

// during runs fn, reading /proc/self/statm every rssSampleEvery, and
// adds the readings. Where /proc is unavailable it falls back to the Go
// runtime's total obtained memory after fn.
func (r *rssReadings) during(fn func()) {
	first, ok := rssMB()
	if !ok {
		fn()
		var st runtime.MemStats
		runtime.ReadMemStats(&st)
		mb := float64(st.Sys) / (1 << 20)
		r.peaks = append(r.peaks, mb)
		r.sum += mb
		r.readings++
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	peak, sum, n := first, first, 1
	go func() {
		defer close(done)
		t := time.NewTicker(rssSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			x, _ := rssMB()
			sum += x
			n++
			if x > peak {
				peak = x
			}
		}
	}()
	fn()
	close(stop)
	<-done
	r.peaks = append(r.peaks, peak)
	r.sum += sum
	r.readings += n
}

// rssMB returns the current resident set in MB.
func rssMB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), true
}

// digest hashes canonical lines in sorted order, so the value depends
// only on which named statistics were produced, not on the order cells
// finished in.
func digest(lines []string) string {
	c := append([]string(nil), lines...)
	sort.Strings(c)
	h := sha256.New()
	for _, l := range c {
		fmt.Fprintln(h, l)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// mix derives an independent 64-bit value from a seed and a label
// (splitmix64 over an FNV-1a fold of the label).
func mix(seed uint64, label string) uint64 {
	h := seed ^ 0x9E3779B97F4A7C15
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	if h == 0 {
		h = 1
	}
	return h
}

// setupRepeats is how many times each workload sets up; setup_s is the
// median.
const setupRepeats = 11

func fmtSamples(s samples) string {
	parts := make([]string, len(s))
	for i, x := range s {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}
