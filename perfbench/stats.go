package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
)

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// tailPercentile is the highest of the usual percentiles that still
// has at least ten samples beyond it (0 when there are too few
// samples for any).
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		if float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 0
}

// describe prints a timing sample as its median, its tail percentile
// and the sample count.
func describe(w io.Writer, name string, xs []float64) {
	p := tailPercentile(len(xs))
	if p == 0 {
		fmt.Fprintf(w, "  %-24s median %10.3f  (n=%d, too few samples for a tail percentile)\n", name, median(xs), len(xs))
		return
	}
	fmt.Fprintf(w, "  %-24s median %10.3f  p%-4g %10.3f  (n=%d)\n", name, median(xs), p, quantile(xs, p/100), len(xs))
}

// parallel calls fn(0..n-1) on GOMAXPROCS workers and returns the
// first error. Set-up uses it: inputs and references are independent.
func parallel(n int, fn func(i int) error) error {
	var (
		mu    sync.Mutex
		first error
		next  int
		wg    sync.WaitGroup
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil || i >= n
				mu.Unlock()
				if stop {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}
