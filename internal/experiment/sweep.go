package experiment

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/mpi"
	"mpicollperf/internal/obs"
)

// Kind selects which measurement a grid point runs.
type Kind int

const (
	// PointBcast measures a broadcast in Completion mode (MeasureBcast).
	// The non-blocking linear broadcast of the γ(P) procedure is the
	// special case Alg = coll.BcastLinear, SegSize = 0.
	PointBcast Kind = iota
	// PointBcastThenGather measures the §4.2 estimation experiment — the
	// modelled broadcast followed by a linear-without-synchronisation
	// gather of GatherBytes per rank, timed on the root (the experiment
	// starts and finishes there).
	PointBcastThenGather
	// PointCollective measures one execution of the collective Op with
	// size parameter MsgBytes and segment size SegSize in Completion mode
	// (the extended families' §4.2 experiment: the operation involves
	// every rank symmetrically, so there is no root-only finish).
	PointCollective
)

func (k Kind) String() string {
	switch k {
	case PointBcast:
		return "bcast"
	case PointBcastThenGather:
		return "bcast+gather"
	case PointCollective:
		return "collective"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Collective is a named collective operation a PointCollective grid
// point measures. Points refer to it by pointer, which keeps Point
// comparable: two points run the same operation when they hold the same
// *Collective.
type Collective struct {
	// Name identifies the operation, e.g. "allreduce/ring". It keys the
	// measurement cache and the structure class, so it must be unique
	// among the operations measured on one profile.
	Name string
	// Run executes one instance of the operation on every rank; m and
	// segSize are the point's MsgBytes and SegSize.
	Run func(p *mpi.Proc, m, segSize int)
	// Segments, if non-nil, returns the number of segments the operation
	// splits into on procs ranks at (m, segSize): the one size-dependent
	// input of a segmenting algorithm's communication structure. Nil means
	// the structure is a function of the communicator size alone.
	Segments func(procs, m, segSize int) int
}

// Point is one cell of a measurement grid: a fully specified experiment
// whose outcome is deterministic given the cluster profile and the
// measurement settings.
type Point struct {
	// Kind selects the experiment; the zero value is PointBcast.
	Kind Kind
	// Alg is the broadcast algorithm under measurement.
	Alg coll.BcastAlgorithm
	// Op is the collective under measurement (PointCollective only).
	Op *Collective
	// Procs is the communicator size.
	Procs int
	// MsgBytes is the broadcast message size m.
	MsgBytes int
	// SegSize is the broadcast segment size (0 = unsegmented).
	SegSize int
	// GatherBytes is the per-rank gather size m_g (PointBcastThenGather
	// only).
	GatherBytes int
}

func (pt Point) String() string {
	if pt.Kind == PointCollective {
		return fmt.Sprintf("%s P=%d m=%d seg=%d", pt.Op.Name, pt.Procs, pt.MsgBytes, pt.SegSize)
	}
	s := fmt.Sprintf("%v %v P=%d m=%d seg=%d", pt.Kind, pt.Alg, pt.Procs, pt.MsgBytes, pt.SegSize)
	if pt.Kind == PointBcastThenGather {
		s += fmt.Sprintf(" mg=%d", pt.GatherBytes)
	}
	return s
}

// gatherClassSuffix distinguishes the bcast+gather experiment's structure
// class from the plain broadcast's: the trailing linear gather's
// structure is a function of the communicator size alone (its per-rank
// bytes are harvested by the rebind), so the suffix alone suffices.
const gatherClassSuffix = "+gatherlinear"

// classKey is the point's structure-class key — exactly the key
// Sweep.measure registers the point's plan template under, so the
// sweep scheduler can group the grid by capture unit without running
// anything. Unknown kinds have no class ("") and are never grouped.
func (pt Point) classKey() string {
	switch pt.Kind {
	case PointBcast:
		return coll.BcastClassKey(pt.Alg, pt.Procs, pt.MsgBytes, pt.SegSize)
	case PointBcastThenGather:
		return coll.BcastClassKey(pt.Alg, pt.Procs, pt.MsgBytes, pt.SegSize) + gatherClassSuffix
	case PointCollective:
		segs := 1
		if pt.Op.Segments != nil {
			segs = pt.Op.Segments(pt.Procs, pt.MsgBytes, pt.SegSize)
		}
		return fmt.Sprintf("%s/P=%d/segs=%d", pt.Op.Name, pt.Procs, segs)
	}
	return ""
}

// Result pairs a grid point with its measurement.
type Result struct {
	// Point is the grid point the measurement belongs to.
	Point Point
	// Meas is the measurement outcome.
	Meas Measurement
	// Cached reports that the measurement was served from the sweep's
	// cache instead of being run.
	Cached bool
}

// CountFallbacks tallies, per reason, the sweep results whose measurement
// fell back from the replay engine to the scheduler (Measurement.Fallback).
// The total map is empty when nothing fell back. Cached results never
// count: the fallback reason is observability metadata of the run that
// produced the measurement, not of the measurement itself.
func CountFallbacks(results []Result) map[FallbackReason]int {
	var counts map[FallbackReason]int
	for _, r := range results {
		if r.Cached || r.Meas.Fallback == FallbackNone {
			continue
		}
		if counts == nil {
			counts = make(map[FallbackReason]int)
		}
		counts[r.Meas.Fallback]++
	}
	return counts
}

// Progress observes sweep completion events. It is called once per grid
// point, serialised (never concurrently), with the number of points
// finished so far, the grid size, and the point's result. Completion
// order is nondeterministic under concurrency; only the returned slice
// of Run is ordered.
type Progress func(done, total int, r Result)

// Sweep runs a grid of measurement points over a bounded worker pool.
//
// Every worker owns one reusable mpi.Runner for the duration of a Run (a
// private simulator plus warm scheduler state, reset between points), so
// concurrent measurements share no mutable state and the results are
// bit-identical to running the same grid serially with a fresh simulator
// per point — the scheduler inside each simulated MPI run, the noise
// stream, and the adaptive repetition loop are all per-measurement
// deterministic. Workers claim one grid point at a time from an atomic
// cursor.
//
// The zero value is not usable; Profile must be set. All other fields are
// optional.
type Sweep struct {
	// Profile is the simulated platform every point runs on.
	Profile cluster.Profile
	// Settings drive the adaptive measurement of every point; the zero
	// value is normalised exactly as Measure normalises it, so a Sweep
	// and direct Measure* calls with the same Settings agree.
	Settings Settings
	// Workers bounds the number of concurrently measured points.
	// 0 (or negative) means runtime.GOMAXPROCS(0); 1 reproduces the
	// serial path. The effective count is additionally clamped to
	// GOMAXPROCS, the grid size, and (when a Pool is attached) the pool
	// capacity: measurements are pure CPU, so workers beyond the
	// schedulable cores only thrash caches and interleave working sets —
	// the anti-scaling this clamp removes. Worker count never changes
	// results.
	Workers int
	// Pool, if non-nil, lends the workers their Runners instead of each
	// Run constructing new ones: across repeated sweeps (a calibration
	// runs several) the simulators and their warm scheduler, capture,
	// plan, and replay buffers are built once. The pool's Runners must
	// have been built for this Profile (NewRunnerPool does exactly that);
	// lending a pool across different profiles is a programming error.
	Pool *mpi.RunnerPool
	// DisableTemplates switches the plan-template fast path off: every
	// point captures under the scheduler as in the pre-template engine.
	// Otherwise (and unless the scheduler engine is forced) the replay
	// engine captures each structure class once and rebinds every other
	// point of the class goroutine-free (mpi.Runner.Rebind), keeping the
	// templates in the Pool's store — which persists across sweeps — or,
	// pool-less, in a store scoped to the Run. A Run-scoped store holds
	// only classes with at least two points in the grid: a singleton
	// class's template could never be rebound, so its point is measured
	// by capture and replay without publishing. Results are bit-identical
	// either way; the switch is the untemplated reference path that
	// benchmarks and tests compare against.
	DisableTemplates bool
	// Cache, if non-nil, is consulted before and filled after each
	// measurement, keyed by the full experiment identity (profile,
	// point, settings).
	Cache *Cache
	// Progress, if non-nil, is invoked after each point completes.
	Progress Progress
	// Metrics, if non-nil, receives sweep counters (points measured and
	// served from cache, per-engine repetition counts, fallback tallies),
	// level gauges (effective workers, points not yet completed), a
	// sweep_run_seconds span per Run, and the cache size gauge. Workers
	// share the registry; it is never consulted for decisions, so
	// results are bit-identical with or without it.
	Metrics *obs.Registry
}

// NewRunnerPool builds a RunnerPool whose Runners are constructed for pr
// exactly as a pool-less sweep would construct them (a fresh network of
// the profile's full size, metrics threaded through), sized for capacity
// concurrent borrowers. Attach it to every Sweep over pr to amortize
// simulator construction across Runs.
func NewRunnerPool(pr cluster.Profile, capacity int, m *obs.Registry) (*mpi.RunnerPool, error) {
	return mpi.NewRunnerPool(capacity, func() (*mpi.Runner, error) {
		return newProfileRunner(pr, m)
	}, m)
}

// Run measures every point of the grid and returns the results in grid
// order (results[i] belongs to points[i]) regardless of completion order.
//
// The first failing point cancels all in-flight work and is returned as
// the error; a cancelled ctx likewise stops the sweep promptly (workers
// finish their current point and exit — individual measurements are not
// interruptible). On error the partial results are discarded.
func (s Sweep) Run(ctx context.Context, points []Point) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(points) == 0 {
		return nil, nil
	}
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Grid points are CPU-bound simulations: concurrency beyond the
	// schedulable cores cannot finish the grid sooner, it can only evict
	// each worker's warm simulator state from cache on every preemption.
	if mp := runtime.GOMAXPROCS(0); workers > mp {
		workers = mp
	}
	if workers > len(points) {
		workers = len(points)
	}
	if s.Pool != nil && workers > s.Pool.Cap() {
		workers = s.Pool.Cap()
	}
	// Resolve the plan-template store: the pool's (persistent across
	// sweeps), else a Run-scoped store so that structure classes
	// recurring within this grid still capture once. The scheduler
	// engine never consults templates.
	var tmpls *mpi.TemplateStore
	scoped := false // the store lives only as long as this Run
	if !s.DisableTemplates && s.Settings.Engine != EngineScheduler {
		if s.Pool != nil {
			tmpls = s.Pool.Templates()
		} else {
			tmpls = mpi.NewTemplateStore()
			scoped = true
		}
	}

	// Class-aware scheduling: group the grid by structure class so each
	// class's expensive template capture (≈3.3× a rebind) runs exactly
	// once, as early as possible, and never twice concurrently. order
	// lists each class's first point in grid order — the exact points a
	// serial templated sweep would capture — then everything else
	// (later points of known classes, plus any class-less points) in grid
	// order. Workers claim order one point at a time, so the leaders are
	// all claimed before any follower; a worker that reaches a class
	// whose capture is still in flight blocks briefly on the template
	// future inside the measurement (mpi.TemplateStore.Acquire) instead
	// of duplicating the capture. Untemplated sweeps skip the grouping:
	// order is the grid in order.
	//
	// With a Run-scoped store, a class with a single point in the grid is
	// a singleton: its template would die with the Run unused, so the
	// point is measured with no class attached (no flight, no clone, no
	// retained plan). alone marks those points.
	order := make([]int, 0, len(points))
	leaders := 0
	var alone []bool
	if tmpls != nil {
		size := make(map[string]int, len(points))
		var rest []int
		for i, pt := range points {
			key := pt.classKey()
			if key == "" {
				rest = append(rest, i)
				continue
			}
			if size[key]++; size[key] > 1 {
				rest = append(rest, i)
			} else {
				order = append(order, i)
			}
		}
		leaders = len(order)
		if scoped {
			alone = make([]bool, len(points))
			for _, i := range order {
				alone[i] = size[points[i].classKey()] == 1
			}
		}
		order = append(order, rest...)
	} else {
		for i := range points {
			order = append(order, i)
		}
	}

	s.Metrics.Gauge("sweep_workers").Set(float64(workers))
	s.Metrics.Gauge("experiment_sweep_class_groups").Set(float64(leaders))
	pending := s.Metrics.Gauge("sweep_points_pending")
	pending.Set(float64(len(points)))
	sp := s.Metrics.Span("sweep_run")
	defer func() {
		sp.End()
		if s.Cache != nil {
			s.Metrics.Gauge("sweep_cache_entries").Set(float64(s.Cache.Len()))
		}
	}()

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		results  = make([]Result, len(points))
		next     atomic.Int64 // cursor: index of the first unclaimed order entry
		wg       sync.WaitGroup
		mu       sync.Mutex // guards firstErr, done, and serialises Progress
		firstErr error
		done     int
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel() // stop the other workers
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker owns one reusable Runner — borrowed from the
			// pool, or built lazily on its first uncached point — so
			// consecutive grid points share warm scheduler state instead of
			// rebuilding it; measurements stay bit-identical to fresh
			// per-point simulators.
			var runner *mpi.Runner
			if s.Pool != nil {
				defer func() {
					if runner != nil {
						s.Pool.Put(runner)
					}
				}()
			}
			acquire := func() (*mpi.Runner, error) {
				if runner != nil {
					return runner, nil
				}
				var err error
				if s.Pool != nil {
					runner, err = s.Pool.Get()
				} else {
					runner, err = newProfileRunner(s.Profile, s.Metrics)
				}
				return runner, err
			}
			// Each claim measures one grid point and records its result.
			// results indices are disjoint across workers, so the slice
			// needs no lock — the WaitGroup publishes the writes to Run's
			// return. Only Progress (serialised by contract) takes the mutex.
			for {
				k := next.Add(1) - 1
				if k >= int64(len(order)) || ctx.Err() != nil {
					return
				}
				i := order[k]
				r, err := s.measure(points[i], acquire, tmpls, alone != nil && alone[i])
				if err != nil {
					fail(fmt.Errorf("sweep point %d (%v): %w", i, points[i], err))
					return
				}
				results[i] = r
				if s.Progress != nil {
					mu.Lock()
					done++
					s.Progress(done, len(points), r)
					mu.Unlock()
				}
				pending.Add(-1)
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// measure serves one point, through the cache when one is attached.
// acquire returns the worker's Runner, creating or borrowing it on the
// first measured point; cached points never touch a Runner. tmpls, which
// may be nil, is the resolved plan-template store (see
// Sweep.DisableTemplates);
// a singleton point is measured without it, because no other point of
// the Run could rebind its class's template.
func (s Sweep) measure(pt Point, acquire func() (*mpi.Runner, error), tmpls *mpi.TemplateStore, singleton bool) (Result, error) {
	var key string
	if s.Cache != nil {
		key = cacheKey(s.Profile, pt, s.Settings)
		if m, ok := s.Cache.get(key); ok {
			s.Metrics.Counter("sweep_points_cached_total").Inc()
			return Result{Point: pt, Meas: m, Cached: true}, nil
		}
	}
	runner, err := acquire()
	if err != nil {
		return Result{}, err
	}
	if singleton {
		tmpls = nil
	}
	m, err := measurePoint(runner, s.Profile, s.Settings, pt, tmpls)
	if err != nil {
		return Result{}, err
	}
	if singleton {
		runner.Metrics().Counter(mPlanSingletons).Inc()
	}
	s.Metrics.Counter("sweep_points_measured_total").Inc()
	if s.Cache != nil {
		s.Cache.put(key, m)
	}
	return Result{Point: pt, Meas: m}, nil
}

// measurePoint measures one grid point on r. tmpls, which may be nil, is
// the plan-template store the point's structure class lives in.
func measurePoint(r *mpi.Runner, pr cluster.Profile, set Settings, pt Point, tmpls *mpi.TemplateStore) (Measurement, error) {
	switch pt.Kind {
	case PointBcast:
		return MeasureComposedClass(r, pr, pt.Procs, set, Completion, pt.classKey(), tmpls,
			bcastOp(pt.Alg, pt.MsgBytes, pt.SegSize))
	case PointBcastThenGather:
		return MeasureComposedClass(r, pr, pt.Procs, set, RootTime, pt.classKey(), tmpls,
			bcastOp(pt.Alg, pt.MsgBytes, pt.SegSize), linearGatherOp(pt.GatherBytes))
	case PointCollective:
		return MeasureComposedClass(r, pr, pt.Procs, set, Completion, pt.classKey(), tmpls, func(p *mpi.Proc) {
			pt.Op.Run(p, pt.MsgBytes, pt.SegSize)
		})
	}
	return Measurement{}, fmt.Errorf("experiment: unknown point kind %v", pt.Kind)
}

// BcastGrid builds the (message size × algorithm) cross product at a fixed
// communicator and segment size, sizes-major: all algorithms of sizes[0]
// first, matching how the sweep tables are printed.
func BcastGrid(procs int, algs []coll.BcastAlgorithm, sizes []int, segSize int) []Point {
	points := make([]Point, 0, len(sizes)*len(algs))
	for _, m := range sizes {
		for _, alg := range algs {
			points = append(points, Point{Kind: PointBcast, Alg: alg, Procs: procs, MsgBytes: m, SegSize: segSize})
		}
	}
	return points
}
