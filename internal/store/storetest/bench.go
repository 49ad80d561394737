package storetest

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/advisor"
	"repro/internal/store"
)

// ShmDir returns a fresh directory on /dev/shm, removed when tb ends,
// or tb.TempDir() where /dev/shm does not exist. A store placed there
// is measured by its own code, not by the fsync latency of the disk
// under the default temporary directory.
func ShmDir(tb testing.TB) string {
	if fi, err := os.Stat("/dev/shm"); err == nil && fi.IsDir() {
		if dir, err := os.MkdirTemp("/dev/shm", "chkpt-store-"); err == nil {
			tb.Cleanup(func() { os.RemoveAll(dir) })
			return dir
		}
	}
	return tb.TempDir()
}

// BenchAppend is the store-append rung: at 1, 8 and 64 writers, each
// appending to a session of its own, b.N durable event appends split
// evenly across the writers, reported as events/s over all of them.
// open returns an empty log per run.
func BenchAppend(b *testing.B, open func(b *testing.B) store.SessionLog) {
	ss, _ := History()
	for _, writers := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			ctx := context.Background()
			log := open(b)
			for w := range writers {
				if err := log.AppendCreated(ctx, fmt.Sprintf("w%02d", w), ss); err != nil {
					b.Fatal(err)
				}
			}
			errs := make(chan error, writers)
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for w := range writers {
				n := b.N / writers
				if w < b.N%writers {
					n++
				}
				wg.Add(1)
				go func(id string) {
					defer wg.Done()
					for k := range n {
						ev := advisor.Event{Kind: advisor.EventProgress, Time: float64(k + 1), Work: float64(k + 1)}
						if err := log.AppendEvent(ctx, id, ev); err != nil {
							errs <- err
							return
						}
					}
				}(fmt.Sprintf("w%02d", w))
			}
			wg.Wait()
			b.StopTimer()
			close(errs)
			for err := range errs {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
