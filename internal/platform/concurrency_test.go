package platform

import (
	"sync"
	"testing"
)

// TestClusterConcurrentReads pins the cluster's concurrency contract (run
// with -race): the table is immutable after construction, so goroutines
// resolving and reading links, processors and zones at once need no lock
// and all agree with a single-threaded reading of an equal cluster.
func TestClusterConcurrentReads(t *testing.T) {
	c, ref := SmallZoned(3, 3), SmallZoned(3, 3)
	P := c.NumCompute()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				src := (w*37 + i) % P
				dst := (src + 1 + i%(P-1)) % P
				id := c.Link(src, dst)
				if want := ref.Link(src, dst); id != want {
					t.Errorf("link %d→%d has id %d, want %d", src, dst, id, want)
					return
				}
				if p := c.Proc(id); *p != *ref.Proc(id) || c.ZoneOf(id) != c.ZoneOf(src) {
					t.Errorf("link %d→%d reads %+v, want %+v in zone %d", src, dst, *p, *ref.Proc(id), c.ZoneOf(src))
					return
				}
				_ = c.ExecTime(100, src)
				_ = c.WeightFactor(id)
			}
		}(w)
	}
	wg.Wait()
}
