package engine

import (
	"context"
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkEngineSteadyState measures the per-fix cost of one session's
// hot path over pregenerated epochs, per solver, and of live generation
// through the epoch cache (the live arm). The acceptance bar is 0
// allocs/op; the live arm's bytes are its share of the cache's
// per-epoch snapshot.
func BenchmarkEngineSteadyState(b *testing.B) {
	b.Run("live", func(b *testing.B) {
		// Stepped the way a shard steps its sessions: the epoch's
		// snapshot is warmed once, then every session generates into the
		// shard's buffer and solves. An op is one fix, so one propagation
		// is amortized over liveReceivers fixes.
		const liveReceivers, warm = 8, 300
		eng, err := New(Config{Receivers: liveReceivers, Workers: 1, Seed: 11})
		if err != nil {
			b.Fatal(err)
		}
		sessions := eng.shards[0].sessions
		step := func(k int) {
			epoch := k / liveReceivers
			if k%liveReceivers == 0 {
				_, _ = eng.cache.At(epoch) // a failed snapshot resurfaces from the step
			}
			sessions[k%liveReceivers].step(epoch)
		}
		for k := 0; k < warm*liveReceivers; k++ {
			step(k)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for k := 0; k < b.N; k++ {
			step(warm*liveReceivers + k)
		}
	})
	for _, solver := range []string{"nr", "dlo", "dlg", "bancroft"} {
		b.Run(solver, func(b *testing.B) {
			eng, err := New(Config{Receivers: 1, Workers: 1, Solver: solver, Seed: 11})
			if err != nil {
				b.Fatal(err)
			}
			const warm = 300
			pre := warm + b.N
			if err := eng.Pregenerate(pre); err != nil {
				b.Fatal(err)
			}
			s := eng.sessions[0]
			for i := 0; i < warm; i++ {
				s.step(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.step(warm + i)
			}
		})
	}
}

// BenchmarkEngineThroughput measures end-to-end fixes/sec as the worker
// count grows, with receivers fixed. On a multi-core runner throughput
// should scale near-linearly until workers approach GOMAXPROCS.
func BenchmarkEngineThroughput(b *testing.B) {
	maxw := runtime.GOMAXPROCS(0)
	const receivers = 8
	const preEpochs = 512
	for workers := 1; workers <= maxw; workers *= 2 {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng, err := New(Config{Receivers: receivers, Workers: workers, Seed: 5})
			if err != nil {
				b.Fatal(err)
			}
			if err := eng.Pregenerate(preEpochs); err != nil {
				b.Fatal(err)
			}
			// Warm every session so the steady state is measured.
			for _, s := range eng.sessions {
				for i := 0; i < 300; i++ {
					s.step(i)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			fixes := 0
			for i := 0; i < b.N; i++ {
				// Re-run the same pregenerated window; predictors stay
				// calibrated, so every epoch is a full hot-path fix.
				if err := eng.Run(context.Background(), preEpochs); err != nil {
					b.Fatal(err)
				}
				fixes += preEpochs * receivers
			}
			b.StopTimer()
			b.ReportMetric(float64(fixes)/b.Elapsed().Seconds(), "fixes/sec")
		})
	}
}
