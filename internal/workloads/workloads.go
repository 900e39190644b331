// Package workloads implements the paper's three studied I/O
// workloads against the simulated stack: the IOR parametrized
// micro-benchmark (§III), the MADbench out-of-core CMB solver I/O
// kernel (§IV), and the GCRM climate-model I/O kernel with its three
// progressive optimizations (§V). Each run produces an IPM-I/O
// collector ready for ensemble analysis.
package workloads

import (
	"ensembleio/internal/cluster"
	"ensembleio/internal/faults"
	"ensembleio/internal/ipmio"
	"ensembleio/internal/lustre"
	"ensembleio/internal/mpi"
	"ensembleio/internal/posixio"
	"ensembleio/internal/sim"
	"ensembleio/internal/telemetry"
)

// Type aliases keep the per-workload files terse.
type (
	mpiRank = mpi.Rank
	mpiComm = mpi.Comm
	tracer  = ipmio.Tracer
)

// Run is the artifact of one workload execution.
type Run struct {
	Name      string
	Tasks     int
	Collector *ipmio.Collector
	// Wall is the makespan: the virtual time at which the last rank
	// finished the workload body.
	Wall sim.Duration
	// TotalBytes is the logical data volume moved by the workload's
	// sized operations (writes + reads), excluding metadata.
	TotalBytes int64
	// FSStats is the file system's server-side counter snapshot at the
	// end of the run — the second observation channel the advisor's
	// straggler-OST cross-check uses.
	FSStats lustre.Stats
	// CoresPerNode records the machine's rank-to-node block factor so
	// analysis can map ranks to nodes without the profile in hand.
	CoresPerNode int
	// Telemetry is the run's deterministic metric snapshot — engine,
	// fabric, lustre, and MPI counters over virtual time. Nil unless
	// the workload config set Telemetry: true.
	Telemetry *telemetry.Snapshot
	// Spans are the run's virtual-time spans: workload phases, fault
	// windows, and (in trace mode) per-rank I/O calls. Nil unless
	// telemetry was enabled.
	Spans []telemetry.Span
}

// AggregateMBps is the job-level rate the paper reports: total data
// moved divided by wall time.
func (r *Run) AggregateMBps() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.TotalBytes) / 1e6 / float64(r.Wall)
}

// platform is the shared substrate jobs run on: engine, cluster,
// fabric, file system, POSIX layer, and the telemetry sink. A solo run
// builds a platform per job (newJob); a multi-tenant session
// (internal/tenancy) builds one platform and attaches several jobs
// with staggered starts, so every tenant contends for the same fabric,
// OSTs, and metadata service.
type platform struct {
	eng *sim.Engine
	cl  *cluster.Cluster
	fs  *lustre.FS
	sys *posixio.System
	tel *telemetry.Sink

	scenario *faults.Scenario

	// pending counts attached jobs whose ranks have not all finished;
	// the background-load injector stops only when it reaches zero, so
	// a tenant finishing early does not silence the contention its
	// neighbors still see.
	pending int
}

func newPlatform(prof cluster.Profile, nNodes int, seed int64, withTel bool) *platform {
	eng := sim.NewEngine()
	cl := cluster.New(eng, prof, nNodes, seed)
	var tel *telemetry.Sink
	if withTel {
		tel = telemetry.New()
	}
	// Instrument before mounting lustre and building the MPI worlds:
	// both cache their metric handles from cl.Tel at construction. A
	// nil sink hands out nil handles, which no-op.
	cl.Instrument(tel)
	fs := lustre.NewFS(cl)
	return &platform{eng: eng, cl: cl, fs: fs, sys: posixio.NewSystem(fs), tel: tel}
}

// applyFaults installs a degradation scenario (if any) on the freshly
// built machine and mounted file system, before launch. The scenario
// is retained so telemetry can derive its fault windows at finish.
func (pl *platform) applyFaults(s *faults.Scenario) {
	if s == nil {
		return
	}
	if err := s.Apply(pl.cl, pl.fs); err != nil {
		panic(err)
	}
	pl.scenario = s
}

// jobDone records one attached job's completion (its last rank
// finished) and stops the background-load injectors once every
// attached job is done, so the event queue can drain.
func (pl *platform) jobDone() {
	pl.pending--
	if pl.pending == 0 {
		pl.cl.StopBackground()
	}
}

// job wires up one simulated job on a platform: an MPI world, a
// collector, and (on multi-tenant sessions) a tenant identity plus a
// virtual-time start offset.
type job struct {
	plat *platform
	eng  *sim.Engine
	cl   *cluster.Cluster
	fs   *lustre.FS
	sys  *posixio.System
	w    *mpi.World
	col  *ipmio.Collector
	tel  *telemetry.Sink

	// Tenant identity on a shared platform: name tags the job's spans
	// and counters, tenantIdx is its lustre accounting bucket, startAt
	// is its staggered start. All zero on solo runs.
	tenant    string
	tenantIdx int
	startAt   sim.Time

	finished int
	started  sim.Time
	wall     sim.Time

	// Fast-forward window samples at the job's start and last-rank
	// finish, so a session can report per-tenant fast-forwarded
	// fractions rather than only the global one.
	ffStart, ffEnd       float64
	jumpsStart, jumpsEnd uint64
}

// attach builds a job on the platform: an MPI world placed per mcfg
// and a fresh collector. Construction order matches what the solo path
// always did (world after fs/sys), so solo artifacts stay byte-stable.
func (pl *platform) attach(tasks int, mode ipmio.Mode, mcfg mpi.Config) *job {
	pl.pending++
	return &job{
		plat: pl,
		eng:  pl.eng,
		cl:   pl.cl,
		fs:   pl.fs,
		sys:  pl.sys,
		w:    mpi.NewWorld(pl.eng, pl.cl, tasks, mcfg),
		col:  ipmio.NewCollector(mode),
		tel:  pl.tel,
	}
}

func newJob(prof cluster.Profile, tasks int, seed int64, mode ipmio.Mode, withTel bool) *job {
	nodes := (tasks + prof.CoresPerNode - 1) / prof.CoresPerNode
	pl := newPlatform(prof, nodes, seed, withTel)
	return pl.attach(tasks, mode, mpi.Config{})
}

func (j *job) applyFaults(s *faults.Scenario) { j.plat.applyFaults(s) }

// finish snapshots the per-run server-side state into the artifact.
func (j *job) finish(r *Run) *Run {
	r.FSStats = j.fs.Stats()
	r.CoresPerNode = j.cl.Prof.CoresPerNode
	j.foldTelemetry(r)
	return r
}

// foldTelemetry turns the sink plus end-of-run state into the run's
// serialized telemetry: engine and lustre counters are folded in bulk
// here (zero hot-path cost), and the span list is assembled in a fixed
// order — workload phases, fault windows, then per-rank I/O calls —
// every piece a pure function of the simulated run.
func (j *job) foldTelemetry(r *Run) {
	tel := j.tel
	if !tel.Enabled() {
		return
	}
	wall := float64(j.wall)

	tel.Counter("sim.events_popped").Add(float64(j.eng.EventsPopped()))
	tel.Counter("sim.events_scheduled").Add(float64(j.eng.EventsScheduled()))
	tel.Gauge("sim.heap_high_water").Set(float64(j.eng.HeapHighWater()))

	// Fast-forward accounting: virtual seconds the fabric crossed in
	// single analytic jumps. Where the jumps land is a pure function of
	// the simulated run (the completion calendar's deadlines and the
	// deferred recomputes), so these counters are safe to serialize and
	// ensembletop can print the ratio against sim.virtual_seconds.
	tel.Counter("sim.virtual_seconds").Add(wall)
	if ff := j.eng.FastForwardSeconds(); ff > 0 {
		tel.Counter("sim.ff_seconds").Add(ff)
		tel.Counter("sim.ff_jumps").Add(float64(j.eng.FastForwardJumps()))
	}

	st := &r.FSStats
	foldLustreCounters(tel, st)

	// Per-OST accounting, including injected stall exposure derived
	// from the fault scenario's windows (nil scenario -> no stalls).
	stalls := j.plat.scenario.StallSeconds(wall, len(st.PerOST))
	foldPerOST(tel, "lustre.", st.PerOST, stalls)

	marks := j.col.Marks
	for i, m := range marks {
		end := wall
		if i+1 < len(marks) {
			end = float64(marks[i+1].T)
		}
		tel.Span("phase", m.Name, -1, float64(m.T), end)
	}
	for _, w := range j.plat.scenario.Windows(wall) {
		tel.Span("fault", w.Label, -1, w.T0, w.T1)
	}
	for i := range j.col.Events {
		e := &j.col.Events[i]
		tel.Span("io", e.Op.String(), e.Rank, float64(e.Start), float64(e.Start+e.Dur))
	}

	r.Telemetry = tel.Snapshot()
	r.Spans = tel.Spans()
}

// spawn launches body on every rank at the job's start offset without
// driving the engine — a multi-tenant session spawns every tenant,
// then runs the shared engine once. The makespan and the per-job
// fast-forward window are tracked here; the platform is notified when
// the last rank completes.
func (j *job) spawn(body func(r *mpi.Rank, tr *ipmio.Tracer)) {
	run := func() {
		j.started = j.eng.Now()
		j.ffStart = j.eng.FastForwardSeconds()
		j.jumpsStart = j.eng.FastForwardJumps()
		j.w.Launch(func(r *mpi.Rank) {
			tr := ipmio.NewTracer(j.sys.NewTask(r.ID, r.Node), j.col)
			body(r, tr)
			j.finished++
			if r.P.Now() > j.wall {
				j.wall = r.P.Now()
			}
			if j.finished == j.w.Size() {
				j.ffEnd = j.eng.FastForwardSeconds()
				j.jumpsEnd = j.eng.FastForwardJumps()
				j.plat.jobDone()
			}
		})
	}
	if j.startAt > 0 {
		j.eng.At(j.startAt, run)
	} else {
		run()
	}
}

// launch runs body on every rank and drives the engine to completion
// (the solo-run path).
func (j *job) launch(body func(r *mpi.Rank, tr *ipmio.Tracer)) {
	j.spawn(body)
	j.eng.Run()
}

// mark records a phase boundary once (from rank 0).
func (j *job) mark(r *mpi.Rank, name string) {
	if r.ID == 0 {
		j.col.Mark(name, r.P.Now())
	}
}
