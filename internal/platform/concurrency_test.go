package platform

import (
	"sync"
	"testing"
)

// TestClusterConcurrentLinkMaterialization pins the cluster's concurrency
// contract (run with -race): many goroutines materializing overlapping
// links while others read processors and power aggregates must neither
// race nor disagree — the same (src, dst) always resolves to one id with
// one deterministic power draw, and previously returned ids stay valid.
func TestClusterConcurrentLinkMaterialization(t *testing.T) {
	c := Small(3)
	const workers = 16
	ids := make([][]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				src := (w + i) % c.NumCompute()
				dst := (src + 1 + i%7) % c.NumCompute()
				if src == dst {
					continue
				}
				id := c.Link(src, dst)
				ids[w] = append(ids[w], id)
				// Concurrent readers of the append-only snapshot.
				if p := c.Proc(id); !p.IsLink() || p.Src != src || p.Dst != dst {
					t.Errorf("link %d→%d resolved to wrong processor %+v", src, dst, p)
					return
				}
				_ = c.TotalIdle()
				_ = c.MaxPower()
				_ = c.NumProcs()
				_ = c.ExecTime(100, src)
			}
		}(w)
	}
	wg.Wait()

	// Every (src, dst) pair must have exactly one id across all workers.
	byPair := map[[2]int]int{}
	for w := range ids {
		for _, id := range ids[w] {
			p := c.Proc(id)
			key := [2]int{p.Src, p.Dst}
			if prev, ok := byPair[key]; ok && prev != id {
				t.Fatalf("link %v materialized twice: ids %d and %d", key, prev, id)
			}
			byPair[key] = id
		}
	}
	// And its power must match a freshly derived single-threaded cluster.
	ref := Small(3)
	for pair, id := range byPair {
		want := ref.Proc(ref.Link(pair[0], pair[1])).Type
		if got := c.Proc(id).Type; got.Idle != want.Idle || got.Work != want.Work {
			t.Errorf("link %v power %+v, want %+v", pair, got, want)
		}
	}
}

// TestProcPointerSurvivesLinkGrowth pins the append-only table: a Proc
// pointer taken before a thousand more links are materialized (the table
// reallocating several times under it) still reads the values it read
// then, for a compute processor and for a link alike.
func TestProcPointerSurvivesLinkGrowth(t *testing.T) {
	c := SmallZoned(5, 3)
	link := c.Link(3, 4)
	ptrs := []*Processor{c.Proc(2), c.Proc(link)}
	was := []Processor{*ptrs[0], *ptrs[1]}
	made := 0
	for src := 0; src < c.NumCompute() && made < 1000; src++ {
		for dst := 0; dst < c.NumCompute() && made < 1000; dst++ {
			if src != dst && !(src == 3 && dst == 4) {
				c.Link(src, dst)
				made++
			}
		}
	}
	if got := c.NumProcs(); got != c.NumCompute()+1001 {
		t.Fatalf("%d processors after 1001 links, want %d", got, c.NumCompute()+1001)
	}
	for i, p := range ptrs {
		if *p != was[i] {
			t.Errorf("processor %d changed under its pointer: %+v, was %+v", was[i].ID, *p, was[i])
		}
		if *c.Proc(was[i].ID) != was[i] {
			t.Errorf("processor %d reads %+v from the grown table, was %+v", was[i].ID, *c.Proc(was[i].ID), was[i])
		}
	}
	if c.Link(3, 4) != link {
		t.Error("link 3→4 changed id")
	}
}
