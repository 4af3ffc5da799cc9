package main

import (
	"runtime"
	"sync"
	"time"
)

// calibRef is the calibration loop's median time on the 2-vCPU reference
// box (Xeon, 2.1 GHz) when the benchmark was defined. A run's timings are
// scaled by calibRef over the loop's median time in that run.
const calibRef = 15 * time.Millisecond

// calibration is a fixed, program-independent probe of the box's current
// speed: random reads over a 16 MiB table and lookups in a 256k-entry map,
// on every P at once, as the analysis runs. The box's speed drifts with
// load outside the container that no counter shows: one input analyzed
// back to back took from 185 to 267 ms per operation over two minutes, and
// this loop slowed with it. Scaling a run's timings by calibRef over the
// loop's time in that run halved the spread of throughput between runs. The loop
// does not allocate, so neither the garbage collector nor the program under
// test can change its time.
type calibration struct {
	table []uint32
	index map[uint64]uint32
}

func newCalibration() *calibration {
	c := &calibration{table: make([]uint32, 4<<20), index: make(map[uint64]uint32, 1<<18)}
	x := uint32(2463534242)
	for i := range c.table {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		c.table[i] = x
	}
	for i := 0; i < 1<<18; i++ {
		c.index[c.key(i)] = uint32(i)
	}
	return c
}

func (c *calibration) key(i int) uint64 { return uint64(c.table[i])<<20 | uint64(i) }

// run times one pass of the loop and returns calibRef over that time: the
// factor by which a timing taken now is scaled.
func (c *calibration) run() float64 {
	n := runtime.GOMAXPROCS(0)
	sums := make([]uint32, n)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mask := uint32(len(c.table) - 1)
			at, sum := uint32(w*7919), uint32(0)
			for i := 0; i < 100000; i++ {
				v := c.table[at&mask]
				at = v ^ uint32(i)
				j := (i*31 + w) & (1<<18 - 1)
				sum += v*2654435761 + c.index[c.key(j)]
			}
			sums[w] = sum
		}(w)
	}
	wg.Wait()
	return float64(calibRef) / float64(time.Since(t0))
}
