package main

import (
	"runtime"
	"time"
)

// The speed of a shared host changes from one run to the next: the same
// iteration of the same code has taken from one to three times as long
// in runs minutes apart, in CPU time as much as in wall time, and it
// drifts by 10-20% within seconds. A run therefore measures the host as
// it goes. Before and after its set-ups, and after every part of a
// timed iteration, it times a fixed reference load, the same code on
// every commit, and it reports each host time scaled to a reference
// speed:
//
//	reported = measured * refPassSeconds / (reference pass just before and after)
//
// The load has two halves: a pointer chase through an 8 MiB table,
// which pays the memory latency a busy neighbour raises, and a chain of
// dependent float64 operations in L1, which pays the core's speed. The
// simulator pays both. On a shared 2-vCPU VM, scaling by the two
// halves together cut the variation of one seed's iteration time within
// runs on every figure workload, and from run to run on IOR and GCRM,
// where the float64 chain alone missed the slow spells of IOR and the
// chase alone overcorrected MADbench. Loads with a binary heap,
// goroutine hand-offs or small-object allocation took 15-20% longer in
// some processes than in others, which the simulator did not, and were
// left out.

// refPassSeconds is the length that defines the reference speed: a
// reference pass takes this long, in wall and in CPU time, on the
// reference host.
const refPassSeconds = 0.040

// refLoad holds the reference load's data and every pass it has timed.
type refLoad struct {
	chase       []uint32 // one random cycle through every slot
	at          uint32   // where the chase stopped
	vec         []float64
	sink        float64
	walls, cpus []float64 // seconds of each timed pass
}

func newRefLoad() *refLoad {
	const n = 1 << 21
	r := &refLoad{chase: make([]uint32, n), vec: make([]float64, 4096)}
	for i := range r.chase {
		r.chase[i] = uint32(i)
	}
	// Sattolo's shuffle makes the permutation a single cycle.
	x := uint64(88172645463325252)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		r.chase[i], r.chase[j] = r.chase[j], r.chase[i]
	}
	r.pass() // warm up, untimed
	return r
}

// calibrate collects garbage, then times one pass.
func (r *refLoad) calibrate() refSample {
	runtime.GC()
	c0, t0 := cpuSeconds(), time.Now()
	r.pass()
	s := refSample{time.Since(t0).Seconds(), cpuSeconds() - c0}
	r.walls = append(r.walls, s.wall)
	r.cpus = append(r.cpus, s.cpu)
	return s
}

// speed is the median wall and CPU seconds of the passes so far.
func (r *refLoad) speed() refSample {
	return refSample{median(r.walls), median(r.cpus)}
}

// refSample is the host's speed: the wall and CPU seconds of a pass.
type refSample struct{ wall, cpu float64 }

// around is the host's speed over an interval: the mean of the
// calibrations before and after it.
func around(before, after refSample) refSample {
	return refSample{(before.wall + after.wall) / 2, (before.cpu + after.cpu) / 2}
}

// wallS turns measured wall seconds into reference seconds.
func (s refSample) wallS(x float64) float64 { return x * refPassSeconds / s.wall }

// cpuS turns measured CPU seconds into reference seconds.
func (s refSample) cpuS(x float64) float64 { return x * refPassSeconds / s.cpu }

// meter times one iteration in parts: a figure's scenarios and its
// reduction, or a whole campaign iteration. Between the parts of an
// untraced iteration it calibrates, and it scales each part by the
// calibrations just before and after it. A traced iteration runs under
// the CPU profile, so it is not interrupted; its parts are scaled by
// the calibration before it.
type meter struct {
	ref     *refLoad
	between bool      // calibrate after every part
	last    refSample // the latest calibration
	// The iteration so far, as measured and in reference seconds.
	wall, cpu       float64
	refWall, refCPU float64
}

// start begins an iteration.
func (m *meter) start() { m.wall, m.cpu, m.refWall, m.refCPU = 0, 0, 0, 0 }

// part times f as one part of the iteration.
func (m *meter) part(f func()) {
	c0, t0 := cpuSeconds(), time.Now()
	f()
	wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-c0
	sp := m.last
	if m.between {
		next := m.ref.calibrate()
		sp = around(m.last, next)
		m.last = next
	}
	m.wall += wall
	m.cpu += cpu
	m.refWall += sp.wallS(wall)
	m.refCPU += sp.cpuS(cpu)
}

// pass runs the reference load once, about 40 ms on the reference host.
func (r *refLoad) pass() {
	p := r.at
	for i := 0; i < 150000; i++ {
		p = r.chase[p]
	}
	r.at = p

	v := r.vec
	for i := range v {
		v[i] = float64(i%97) + 0.5
	}
	s := 0.0
	for k := 0; k < 500; k++ {
		for i := range v {
			v[i] = v[i]*0.999 + s*1e-9
			s += v[i] / (1 + v[i])
		}
	}
	r.sink += s
}
