package main

// Closed- and open-loop drivers that time one operation per call.

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// loop describes how operations are issued. With Rate 0 it is a closed
// loop: Clients workers each start the next operation as soon as their
// previous one completes. With Rate > 0 it is an open loop: operation i
// is due at start + i/Rate regardless of completions, Clients bounds
// the operations in flight, and an operation due while every client is
// busy waits — its latency still counts from its due time.
type loop struct {
	Clients int
	Rate    float64 // operations per second; 0 = closed loop
}

// op performs operation i on client w and reports whether its outcome
// was correct.
type op func(w, i int) error

// loopResult holds per-operation samples in milliseconds, ascending.
// A failed operation's latency is +Inf: it misses any latency limit.
type loopResult struct {
	Lat  []float64 // completion − start (closed) or − due time (open)
	Seq  []float64 // Lat in the order the operations started
	Late []float64 // open loop: actual start − due time
	Wall time.Duration
	OK   int
}

// run issues operations for d, then waits for those in flight.
func (l loop) run(d time.Duration, t *tally, do op) (loopResult, error) {
	if err := checkLoad(l.Clients); err != nil {
		return loopResult{}, err
	}
	var (
		next atomic.Int64
		mu   sync.Mutex
		res  loopResult
		wg   sync.WaitGroup
		seq  []startedOp
	)
	start := time.Now()
	deadline := start.Add(d)
	var interval time.Duration
	if l.Rate > 0 {
		interval = time.Duration(float64(time.Second) / l.Rate)
	}
	for w := 0; w < l.Clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var (
				lat, late []float64
				starts    []startedOp
			)
			ok := 0
			for {
				i := int(next.Add(1) - 1)
				begin := time.Now()
				if l.Rate > 0 {
					due := start.Add(time.Duration(i) * interval)
					if !due.Before(deadline) {
						break
					}
					if wait := time.Until(due); wait > 0 {
						time.Sleep(wait)
					}
					late = append(late, ms(time.Since(due)))
					begin = due
				} else if !begin.Before(deadline) {
					break
				}
				if t.record(do(w, i)) != nil {
					lat = append(lat, math.Inf(1))
				} else {
					lat = append(lat, ms(time.Since(begin)))
					ok++
				}
				starts = append(starts, startedOp{begin, lat[len(lat)-1]})
			}
			mu.Lock()
			seq = append(seq, starts...)
			res.Lat = append(res.Lat, lat...)
			res.Late = append(res.Late, late...)
			res.OK += ok
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	res.Wall = time.Since(start)
	sort.Slice(seq, func(a, b int) bool { return seq[a].at.Before(seq[b].at) })
	for _, s := range seq {
		res.Seq = append(res.Seq, s.lat)
	}
	sort.Float64s(res.Lat)
	sort.Float64s(res.Late)
	return res, nil
}

// startedOp is one operation's start (its due time in the open loop)
// and latency.
type startedOp struct {
	at  time.Time
	lat float64
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
