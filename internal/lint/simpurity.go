package lint

import (
	"go/ast"
	"go/types"
)

// SimPurity enforces the engine's determinism contract inside the
// simulator packages: internal/sim promises bit-identical runs for a
// given seed "regardless of GOMAXPROCS", which no code on the
// simulated side may undermine by consulting the wall clock, the
// global (process-wide, racily seeded) math/rand generator, the Go
// scheduler's configuration, or scheduler-ordered object recycling
// (sync.Pool hands objects back in an order that depends on which P
// freed them — pooled state must live on engine-owned free lists, see
// DESIGN.md §11 — and sync.Map's internals are contention-dependent,
// so any simulator-side cache must key on plain deterministic
// structures instead, see DESIGN.md §13).
var SimPurity = &Analyzer{
	Name: "simpurity",
	Doc: `forbid wall-clock time, global math/rand, scheduler-sensitive
runtime calls, sync.Pool, sync.Map, goroutine launches, and
internal/runpool imports in simulator packages; use the sim.Engine
virtual clock (sim.Time) and the engine's seeded *sim.RNG, recycle
objects through engine-owned free lists, key any cache on
deterministic slices with deterministic eviction, and fan only whole
independent runs in parallel — above the sim layer, via
internal/runpool`,
	Match: prefixMatcher(
		"ensembleio/internal/sim",
		"ensembleio/internal/mpi",
		"ensembleio/internal/lustre",
		"ensembleio/internal/posixio",
		"ensembleio/internal/ipmio",
		"ensembleio/internal/workloads",
		"ensembleio/internal/flownet",
		"ensembleio/internal/cluster",
		"ensembleio/internal/wldsl",
		"ensembleio/internal/tenancy",
	),
	Run: runSimPurity,
}

// WallClockFuncs are the "time" package entry points that read or
// depend on real time. Pure values (time.Duration, time.Second) stay
// legal: only observing the clock breaks determinism. The table is
// shared with internal/lint/detflow, whose interprocedural summaries
// must agree with the syntax-level analyzers on what a source is.
var WallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// SeededRandCtors are the only math/rand entry points a simulator
// package may touch: constructors for explicitly seeded generators.
// Everything else (rand.Float64, rand.Intn, rand.Seed, ...) drives
// the shared global source.
var SeededRandCtors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

// SchedulerFuncs are runtime calls whose results vary with core count
// or goroutine interleaving.
var SchedulerFuncs = map[string]bool{
	"GOMAXPROCS": true, "NumCPU": true, "NumGoroutine": true, "Gosched": true,
}

func runSimPurity(pass *Pass) {
	for _, file := range pass.Files {
		// Parallelism belongs strictly above the per-run simulation:
		// a simulator package that reaches for the run-fan-out
		// executor (or raw goroutines, below) is about to break the
		// lock-step schedule that makes a seed bit-reproducible.
		for _, imp := range file.Imports {
			if imp.Path.Value == `"ensembleio/internal/runpool"` {
				pass.Reportf(imp.Pos(), "simulator package imports internal/runpool; parallelism must stay above the sim layer (fan whole independent runs from the caller)")
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(), "goroutine launch in simulator code; a run must stay on the engine's lock-step schedule — fan whole independent runs via internal/runpool instead")
				return true
			}
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			ident, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pass.Info.Uses[ident].(*types.PkgName)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			switch pkgName.Imported().Path() {
			case "time":
				if WallClockFuncs[name] {
					pass.Reportf(sel.Pos(), "wall-clock time.%s in simulator code; use the sim.Engine virtual clock (sim.Time) so runs are deterministic", name)
				}
			case "math/rand", "math/rand/v2":
				// Referencing a type (rand.Rand, rand.Source) is fine;
				// only package-level functions and variables reach the
				// global generator.
				if _, isType := pass.Info.Uses[sel.Sel].(*types.TypeName); isType {
					return true
				}
				if !SeededRandCtors[name] {
					pass.Reportf(sel.Pos(), "global math/rand %s in simulator code; draw variates from the engine's seeded *sim.RNG", name)
				}
			case "runtime":
				if SchedulerFuncs[name] {
					pass.Reportf(sel.Pos(), "scheduler-sensitive runtime.%s in simulator code; simulation results must not depend on GOMAXPROCS or goroutine scheduling", name)
				}
			case "sync":
				// sync.Pool recycles in whatever order the scheduler
				// freed objects, so reuse patterns (and any state that
				// rides along) vary run to run. Deterministic recycling
				// lives on engine-owned free lists instead.
				if name == "Pool" {
					pass.Reportf(sel.Pos(), "sync.Pool in simulator code; reuse order depends on the Go scheduler — recycle through an engine-owned free list (DESIGN.md §11)")
				}
				// sync.Map is likewise scheduler-shaped: its internals
				// are contention-dependent and Range order is
				// unspecified. A simulator-internal cache keys on plain
				// slices with deterministic eviction instead.
				if name == "Map" {
					pass.Reportf(sel.Pos(), "sync.Map in simulator code; its behavior is contention- and scheduler-dependent — key simulator caches on deterministic slices (DESIGN.md §13)")
				}
			}
			return true
		})
	}
}
