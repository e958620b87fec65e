package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// slotRand is a small generator seeded by (seed, slot), so the op a slot
// carries depends only on those, whichever worker issues it and whenever.
type slotRand struct{ x uint64 }

func newSlotRand(seed, slot int64) slotRand {
	return slotRand{x: splitmix64(uint64(seed)<<32 ^ uint64(slot))}
}

func (r *slotRand) next() uint64 {
	r.x += 0x9e3779b97f4a7c15
	return splitmix64(r.x)
}

func (r *slotRand) Intn(n int) int { return int(r.next() % uint64(n)) }

func (r *slotRand) Float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1)^s by
// inverting a precomputed CDF.
type zipf []float64

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

func (z zipf) rank(r *slotRand) int {
	i := sort.SearchFloat64s(z, r.Float64())
	if i >= len(z) {
		i = len(z) - 1
	}
	return i
}

// worker is one request-issuing goroutine's results.
type worker struct {
	cs   classSet
	led  ledger
	late []int64 // issue time minus due time, per slot
	err  error   // first failed op
}

// openLoop issues the slots *first, *first+1, ... of a fixed-rate schedule
// for dur, and advances *first past them: slot i falls due at start + i/rate.
// Each of n workers takes the next slot, waits until it is due and calls do
// with the issue time, from which do times the op. How late each slot was
// issued is kept apart: on a shared machine it is dominated by how late the
// sleeping worker is woken, which says nothing about the program.
func openLoop(dur time.Duration, rate int, first *int64, n int, do func(w *worker, slot int64, issued time.Time) error) []*worker {
	start := time.Now()
	interval := time.Second / time.Duration(rate)
	slots := int64(dur / interval)
	base := *first
	*first += slots
	var next atomic.Int64
	var wg sync.WaitGroup
	workers := make([]*worker, n)
	for k := range workers {
		w := &worker{cs: classSet{}}
		workers[k] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= slots {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				issued := time.Now()
				w.late = append(w.late, int64(issued.Sub(due)))
				if err := do(w, base+i, issued); err != nil && w.err == nil {
					w.err = err
				}
			}
		}()
	}
	wg.Wait()
	return workers
}

// gather merges the workers' classes into a set and their ledgers into l,
// hands the first failed op's error to r, and returns the classes and the
// lateness samples.
func gather(r *runner, workers []*worker, l *ledger) (classSet, []int64) {
	cs := classSet{}
	var late []int64
	for _, w := range workers {
		cs.merge(w.cs)
		l.merge(&w.led)
		late = append(late, w.late...)
		r.opFailed(w.err)
	}
	return cs, late
}
