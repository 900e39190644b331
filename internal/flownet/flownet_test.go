package flownet

import (
	"math"
	"testing"
	"testing/quick"

	"ensembleio/internal/sim"
)

const q = 0.01 // fine quantum for accuracy tests

func newFab(t *testing.T, agg float64) (*sim.Engine, *Fabric) {
	t.Helper()
	eng := sim.NewEngine()
	return eng, New(eng, Config{AggregateMBps: agg, Quantum: q})
}

func TestSingleStreamDuration(t *testing.T) {
	eng, fab := newFab(t, 100)
	port := fab.NewPort(0)
	var dur sim.Duration
	eng.Spawn("w", func(p *sim.Proc) {
		dur = port.Transfer(p, 500, StreamOpts{}) // 500 MB at 100 MB/s
	})
	eng.Run()
	if math.Abs(float64(dur)-5.0) > 2*q {
		t.Errorf("duration %v, want ~5s", dur)
	}
}

func TestEqualSharing(t *testing.T) {
	eng, fab := newFab(t, 100)
	durs := make([]sim.Duration, 4)
	for i := 0; i < 4; i++ {
		port := fab.NewPort(0)
		idx := i
		eng.Spawn("w", func(p *sim.Proc) {
			durs[idx] = port.Transfer(p, 100, StreamOpts{})
		})
	}
	eng.Run()
	// 4 equal streams on 4 ports, 100 MB each at 25 MB/s -> 4 s.
	for i, d := range durs {
		if math.Abs(float64(d)-4.0) > 3*q {
			t.Errorf("stream %d duration %v, want ~4s", i, d)
		}
	}
}

func TestPortCapBinds(t *testing.T) {
	eng, fab := newFab(t, 1000)
	slow := fab.NewPort(10) // local link 10 MB/s
	fast := fab.NewPort(0)
	var dSlow, dFast sim.Duration
	eng.Spawn("s", func(p *sim.Proc) { dSlow = slow.Transfer(p, 100, StreamOpts{}) })
	eng.Spawn("f", func(p *sim.Proc) { dFast = fast.Transfer(p, 100, StreamOpts{}) })
	eng.Run()
	if math.Abs(float64(dSlow)-10.0) > 5*q {
		t.Errorf("capped stream duration %v, want ~10s", dSlow)
	}
	// The fast port gets the residual 990 MB/s.
	if math.Abs(float64(dFast)-100.0/990.0) > 5*q {
		t.Errorf("uncapped stream duration %v, want ~0.101s", dFast)
	}
}

func TestStreamRateCap(t *testing.T) {
	eng, fab := newFab(t, 1000)
	port := fab.NewPort(0)
	var dur sim.Duration
	eng.Spawn("w", func(p *sim.Proc) {
		dur = port.Transfer(p, 50, StreamOpts{RateCap: 5})
	})
	eng.Run()
	if math.Abs(float64(dur)-10.0) > 5*q {
		t.Errorf("rate-capped duration %v, want ~10s", dur)
	}
}

func TestWithinPortFairness(t *testing.T) {
	eng, fab := newFab(t, 40)
	port := fab.NewPort(0)
	durs := make([]sim.Duration, 4)
	for i := 0; i < 4; i++ {
		idx := i
		eng.Spawn("w", func(p *sim.Proc) {
			durs[idx] = port.Transfer(p, 100, StreamOpts{})
		})
	}
	eng.Run()
	// 4 streams share one port at 40 MB/s -> 10 MB/s each -> 10 s.
	for i, d := range durs {
		if math.Abs(float64(d)-10.0) > 5*q {
			t.Errorf("stream %d duration %v, want ~10s", i, d)
		}
	}
}

func TestWeightedPorts(t *testing.T) {
	eng, fab := newFab(t, 100)
	heavy := fab.NewWeightedPort(0, 3)
	light := fab.NewWeightedPort(0, 1)
	var dHeavy, dLight sim.Duration
	eng.Spawn("h", func(p *sim.Proc) { dHeavy = heavy.Transfer(p, 300, StreamOpts{}) })
	eng.Spawn("l", func(p *sim.Proc) { dLight = light.Transfer(p, 100, StreamOpts{}) })
	eng.Run()
	// heavy gets 75 MB/s, light 25 MB/s -> both finish at 4 s.
	if math.Abs(float64(dHeavy)-4.0) > 5*q {
		t.Errorf("heavy duration %v, want ~4s", dHeavy)
	}
	if math.Abs(float64(dLight)-4.0) > 5*q {
		t.Errorf("light duration %v, want ~4s", dLight)
	}
}

func TestResidualRedistribution(t *testing.T) {
	eng, fab := newFab(t, 100)
	capped := fab.NewPort(0)
	free := fab.NewPort(0)
	var dFree sim.Duration
	eng.Spawn("c", func(p *sim.Proc) {
		capped.Transfer(p, 1000, StreamOpts{RateCap: 10})
	})
	eng.Spawn("f", func(p *sim.Proc) {
		dFree = free.Transfer(p, 90, StreamOpts{})
	})
	eng.Run()
	// capped stream uses 10 MB/s; free one should get ~90 MB/s -> 1 s.
	if math.Abs(float64(dFree)-1.0) > 5*q {
		t.Errorf("free duration %v, want ~1s", dFree)
	}
}

func TestSequentialTransfersAccumulate(t *testing.T) {
	eng, fab := newFab(t, 50)
	port := fab.NewPort(0)
	var total sim.Duration
	eng.Spawn("w", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			total += port.Transfer(p, 25, StreamOpts{}) // 0.5s each
		}
	})
	eng.Run()
	if math.Abs(float64(total)-2.0) > 10*q {
		t.Errorf("total %v, want ~2s", total)
	}
}

func TestZeroDemandCompletesImmediately(t *testing.T) {
	eng, fab := newFab(t, 10)
	port := fab.NewPort(0)
	var dur sim.Duration
	eng.Spawn("w", func(p *sim.Proc) {
		dur = port.Transfer(p, 0, StreamOpts{})
	})
	eng.Run()
	if dur != 0 {
		t.Errorf("zero-demand duration %v, want 0", dur)
	}
}

func TestLateJoinerShares(t *testing.T) {
	eng, fab := newFab(t, 100)
	a := fab.NewPort(0)
	b := fab.NewPort(0)
	var dA sim.Duration
	eng.Spawn("a", func(p *sim.Proc) {
		dA = a.Transfer(p, 150, StreamOpts{})
	})
	eng.Spawn("b", func(p *sim.Proc) {
		p.Sleep(1)
		b.Transfer(p, 1000, StreamOpts{})
	})
	eng.Run()
	// a runs alone at 100 MB/s for 1 s (100 MB), then shares at 50 MB/s
	// for the remaining 50 MB -> 1 s more. Total ~2 s.
	if math.Abs(float64(dA)-2.0) > 10*q {
		t.Errorf("duration %v, want ~2s", dA)
	}
}

// Conservation property: N streams of equal demand through one
// saturated fabric take ~ totalBytes/capacity regardless of port
// arrangement.
func TestConservationProperty(t *testing.T) {
	f := func(nPorts, perPort uint8) bool {
		np := int(nPorts%8) + 1
		pp := int(perPort%4) + 1
		eng := sim.NewEngine()
		fab := New(eng, Config{AggregateMBps: 200, Quantum: q})
		var last sim.Time
		for i := 0; i < np; i++ {
			port := fab.NewPort(0)
			for j := 0; j < pp; j++ {
				eng.Spawn("w", func(p *sim.Proc) {
					port.Transfer(p, 100, StreamOpts{})
					last = p.Now()
					checkCalendar(t, fab)
				})
			}
		}
		eng.Run()
		want := float64(np*pp) * 100 / 200
		return checkCalendar(t, fab) && math.Abs(float64(last)-want) < want*0.05+5*q
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestWithinPortWeights(t *testing.T) {
	eng, fab := newFab(t, 100)
	port := fab.NewPort(0)
	var dHeavy, dLight sim.Duration
	eng.Spawn("h", func(p *sim.Proc) {
		dHeavy = port.Transfer(p, 75, StreamOpts{Weight: 3})
	})
	eng.Spawn("l", func(p *sim.Proc) {
		dLight = port.Transfer(p, 25, StreamOpts{Weight: 1})
	})
	eng.Run()
	// Weighted shares 75/25 MB/s: both finish at ~1 s.
	if math.Abs(float64(dHeavy)-1) > 5*q || math.Abs(float64(dLight)-1) > 5*q {
		t.Errorf("weighted durations %v/%v, want ~1s each", dHeavy, dLight)
	}
}

func TestManyStreamsBatchMode(t *testing.T) {
	// Push past the exact-scheduling threshold: 600 concurrent streams
	// across 150 ports must still conserve bytes.
	eng := sim.NewEngine()
	fab := New(eng, Config{AggregateMBps: 600, Quantum: 0.05})
	var last sim.Time
	for i := 0; i < 150; i++ {
		port := fab.NewPort(0)
		for j := 0; j < 4; j++ {
			eng.Spawn("w", func(p *sim.Proc) {
				port.Transfer(p, 10, StreamOpts{})
				if p.Now() > last {
					last = p.Now()
				}
				checkCalendar(t, fab)
			})
		}
	}
	eng.Run()
	checkCalendar(t, fab)
	// 600 streams x 10 MB at 600 MB/s total -> ~10 s.
	if math.Abs(float64(last)-10) > 0.5 {
		t.Errorf("batch-mode makespan %v, want ~10s", last)
	}
	if fab.ActiveStreams() != 0 {
		t.Errorf("%d streams still active", fab.ActiveStreams())
	}
}

func TestStreamRateObservable(t *testing.T) {
	eng, fab := newFab(t, 100)
	port := fab.NewPort(0)
	var st *Stream
	eng.Spawn("w", func(p *sim.Proc) {
		wake := p.Block()
		st = port.Start(100, StreamOpts{Done: wake})
		p.Park()
	})
	eng.Spawn("check", func(p *sim.Proc) {
		p.Sleep(0.5)
		if r := st.Rate(); math.Abs(r-100) > 1 {
			t.Errorf("mid-flight rate %v, want ~100", r)
		}
	})
	eng.Run()
}
