package experiment_test

import (
	"testing"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/estimate"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/mpi"
	"mpicollperf/internal/simnet"
)

// extendedSpecs lists the 21 extended specs in a fixed order.
func extendedSpecs() []estimate.CollectiveSpec {
	fams := estimate.AllSpecFamilies()
	var specs []estimate.CollectiveSpec
	for _, fam := range []string{"allgather", "allreduce", "alltoall", "reduce", "gather", "scatter", "reduce_scatter"} {
		specs = append(specs, fams[fam]...)
	}
	return specs
}

// FuzzRebindMatchesCapture is the template fast path's differential fuzz
// target: for any cluster shape, operation — a broadcast algorithm
// (specSel 0) or one of the 21 extended specs (specSel 1..21, modulo) —
// and pair of message sizes, measuring the two points through a shared
// template store under their structure-class keys (capture the first,
// rebind or capture the second, rebind the first again) must be
// bit-identical to measuring each on a fresh-path Runner with no store.
func FuzzRebindMatchesCapture(f *testing.F) {
	f.Add(uint8(8), uint8(1), uint8(0), uint16(64), uint16(64), uint8(1), uint8(50), int64(1), uint8(0))
	f.Add(uint8(16), uint8(2), uint8(3), uint16(256), uint16(255), uint8(2), uint8(30), int64(1001), uint8(0))
	f.Add(uint8(5), uint8(1), uint8(5), uint16(8), uint16(512), uint8(0), uint8(0), int64(7), uint8(0))
	f.Add(uint8(12), uint8(3), uint8(2), uint16(1024), uint16(8), uint8(1), uint8(80), int64(-3), uint8(0))
	f.Add(uint8(3), uint8(2), uint8(4), uint16(1), uint16(2), uint8(3), uint8(10), int64(42), uint8(0))
	// reduce/pipeline: 64 and 57 KiB are both 8 segments of 8 KiB, one class.
	f.Add(uint8(10), uint8(1), uint8(0), uint16(63), uint16(56), uint8(1), uint8(40), int64(11), uint8(13))
	// allreduce/recursive_doubling at P=12 (not a power of two: reduce+bcast fallback).
	f.Add(uint8(10), uint8(2), uint8(0), uint16(31), uint16(40), uint8(1), uint8(25), int64(5), uint8(6))
	// alltoall/pairwise.
	f.Add(uint8(7), uint8(1), uint8(0), uint16(3), uint16(200), uint8(0), uint8(60), int64(99), uint8(9))
	specs := extendedSpecs()
	f.Fuzz(func(t *testing.T, nodes, ppn, algIdx uint8, m1KB, m2KB uint16, segSel, noiseMil uint8, seed int64, specSel uint8) {
		nprocs := 2 + int(nodes)%15 // 2..16
		cfg := simnet.Config{
			Nodes:        nprocs,
			Latency:      20e-6,
			ByteTimeSend: 1e-9,
			ByteTimeRecv: 1e-9,
			SendOverhead: 1e-6,
			RecvOverhead: 1e-6,
		}
		if p := 1 + int(ppn)%3; p > 1 {
			cfg.ProcsPerNode = p
			cfg.IntraNodeLatency = 1e-6
			cfg.IntraNodeByteTime = 1e-10
		}
		if amp := float64(noiseMil%101) / 1000; amp > 0 {
			cfg.NoiseAmplitude = amp
			cfg.NoiseSeed = seed
		}
		seg := []int{0, 8192, 16384, 65536}[int(segSel)%4]
		sizes := []int{1024 * (1 + int(m1KB)%1024), 1024 * (1 + int(m2KB)%1024)}
		set := experiment.Settings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 8, Warmup: 1}

		// The operation at size m and its structure-class key.
		var name string
		var op func(m int) experiment.Op
		var key func(m int) string
		if specSel == 0 {
			algs := coll.BcastAlgorithms()
			alg := algs[int(algIdx)%len(algs)]
			name = alg.String()
			op = func(m int) experiment.Op {
				return func(p *mpi.Proc) { coll.Bcast(p, alg, 0, coll.Synthetic(m), seg) }
			}
			key = func(m int) string { return coll.BcastClassKey(alg, nprocs, m, seg) }
		} else {
			spec := specs[int(specSel-1)%len(specs)]
			c := &experiment.Collective{Name: spec.Name, Run: spec.Run, Segments: spec.Segments}
			name = spec.Name
			op = func(m int) experiment.Op {
				return func(p *mpi.Proc) { spec.Run(p, m, seg) }
			}
			key = func(m int) string {
				return experiment.Point{Kind: experiment.PointCollective, Op: c, Procs: nprocs, MsgBytes: m, SegSize: seg}.ClassKey()
			}
		}
		pr := cluster.Profile{Name: "fuzz", Nodes: nprocs}
		newRunner := func() *mpi.Runner {
			net, err := simnet.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return mpi.NewRunnerOn(net, mpi.Options{})
		}
		measure := func(r *mpi.Runner, m int, store *mpi.TemplateStore) experiment.Measurement {
			meas, err := experiment.MeasureComposedClass(r, pr, nprocs, set, experiment.Completion, key(m), store, op(m))
			if err != nil {
				t.Fatalf("%s m=%d (store=%v): %v", name, m, store != nil, err)
			}
			return meas
		}
		ref := newRunner()
		templated := newRunner()
		store := mpi.NewTemplateStore()
		// Sequence: m1 captures its class, m2 rebinds or captures, m1
		// rebinds — each must match a store-free measurement bit for bit.
		for _, m := range []int{sizes[0], sizes[1], sizes[0]} {
			want := measure(ref, m, nil)
			got := measure(templated, m, store)
			experiment.SameMeasurement(t, name, want, got)
		}
	})
}
