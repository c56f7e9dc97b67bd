package core

import (
	"container/heap"
	"context"

	"repro/internal/ceg"
	"repro/internal/power"
	"repro/internal/schedule"
)

// GreedyDynamic is an ablation variant of the greedy that re-evaluates
// task scores as scheduling progresses. The paper computes all scores once
// from the initial EST/LST windows and fixes the processing order up
// front (Section 5.2); here, the next task is always the one with the
// currently best score under the *updated* windows — the natural
// "what if the order adapted" question. Like Greedy it keeps one
// remaining-budget structure per grid zone.
//
// Only the slack and pressure bases are meaningful dynamically (the
// power-weighting factor is static either way). The implementation keeps
// a lazy max-heap: entries are re-pushed when their recorded score is
// stale, so each window update costs O(log n) amortized instead of a full
// re-sort.
func GreedyDynamic(ctx context.Context, inst *ceg.Instance, zs *power.ZoneSet, opt Options, st *Stats) (*schedule.Schedule, error) {
	if err := schedule.CheckZones(inst, zs); err != nil {
		return nil, err
	}
	T := zs.T()
	w, err := newWindows(inst, T)
	if err != nil {
		return nil, err
	}

	bs := newZoneBudgets(inst, zs, opt, st)

	score := func(v int) float64 {
		slack := float64(w.Slack(v))
		dur := float64(inst.Dur[v])
		switch opt.Score {
		case ScoreSlack:
			return -slack // heap pops the max priority; less slack = more urgent
		case ScoreSlackW:
			return -slack / inst.Cluster.WeightFactor(inst.Proc[v])
		case ScorePressure:
			return dur / (slack + dur)
		case ScorePressureW:
			return dur / (slack + dur) * inst.Cluster.WeightFactor(inst.Proc[v])
		default:
			panic("core: unknown score")
		}
	}

	h := &scoreHeap{}
	heap.Init(h)
	for v := 0; v < inst.N(); v++ {
		heap.Push(h, scoredTask{task: v, score: score(v)})
	}

	s := schedule.New(inst.N())
	done := make([]bool, inst.N())
	pops := 0
	for h.Len() > 0 {
		if pops%ctxCheckStride == 0 {
			if err := canceled(ctx); err != nil {
				return nil, err
			}
		}
		pops++
		top := heap.Pop(h).(scoredTask)
		v := top.task
		if done[v] {
			continue
		}
		// Lazy invalidation: if the score changed since the entry was
		// pushed, re-push with the fresh value.
		if cur := score(v); cur != top.score {
			heap.Push(h, scoredTask{task: v, score: cur})
			if st != nil {
				st.Repushes++
			}
			continue
		}
		b := bs[schedule.NodeZone(inst, zs, v)]
		start, ok := b.bestStart(w.est[v], w.lst[v])
		if !ok {
			start = w.est[v]
			if st != nil {
				st.FallbackStarts++
			}
		}
		w.Fix(v, start)
		done[v] = true
		s.Start[v] = start
		idle, work := inst.ProcPower(v)
		b.consume(start, start+inst.Dur[v], idle+work)
	}
	if st != nil {
		st.GreedyCost = schedule.CarbonCost(inst, s, zs)
	}
	return s, nil
}

// scoredTask is a heap entry: higher score pops first; ties pop the
// smaller task id for determinism.
type scoredTask struct {
	task  int
	score float64
}

type scoreHeap []scoredTask

func (h scoreHeap) Len() int { return len(h) }
func (h scoreHeap) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score > h[j].score
	}
	return h[i].task < h[j].task
}
func (h scoreHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *scoreHeap) Push(x any)   { *h = append(*h, x.(scoredTask)) }
func (h *scoreHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
