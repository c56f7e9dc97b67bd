package core

import (
	"cmp"
	"fmt"
	"slices"
)

// Score selects the greedy's task-ordering criterion (Section 5.2).
type Score int

const (
	// ScoreSlack orders tasks by non-decreasing slack
	// s(v) = LST(v) − EST(v): tasks with little freedom go first.
	ScoreSlack Score = iota
	// ScoreSlackW is slack scaled by the reciprocal of the power weight
	// wf(i), so tasks on power-hungry processors are scheduled earlier.
	ScoreSlackW
	// ScorePressure orders tasks by non-increasing pressure
	// ρ(v) = ω(v) / (s(v)+ω(v)): long tasks with little room go first.
	ScorePressure
	// ScorePressureW is pressure scaled by the power weight wf(i).
	ScorePressureW
)

// String returns the paper's name fragment for the score.
func (sc Score) String() string {
	switch sc {
	case ScoreSlack:
		return "slack"
	case ScoreSlackW:
		return "slackW"
	case ScorePressure:
		return "press"
	case ScorePressureW:
		return "pressW"
	default:
		return fmt.Sprintf("Score(%d)", int(sc))
	}
}

// Scores lists the four base scores.
func Scores() []Score {
	return []Score{ScoreSlack, ScoreSlackW, ScorePressure, ScorePressureW}
}

// taskOrder returns the node ids sorted by the given score under the
// initial windows: the processing order of the greedy. Ties break by node
// id for determinism.
func taskOrder(w *windows, sc Score) []int {
	n := w.inst.N()
	val := make([]float64, n)
	for v := 0; v < n; v++ {
		slack := float64(w.Slack(v))
		dur := float64(w.inst.Dur[v])
		switch sc {
		case ScoreSlack:
			val[v] = slack
		case ScoreSlackW:
			val[v] = slack / w.inst.Cluster.WeightFactor(w.inst.Proc[v])
		case ScorePressure:
			val[v] = dur / (slack + dur)
		case ScorePressureW:
			val[v] = dur / (slack + dur) * w.inst.Cluster.WeightFactor(w.inst.Proc[v])
		default:
			panic("core: unknown score")
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	ascending := sc == ScoreSlack || sc == ScoreSlackW
	slices.SortFunc(order, func(u, v int) int {
		a, b := val[u], val[v]
		if a != b {
			if ascending == (a < b) {
				return -1
			}
			return 1
		}
		return cmp.Compare(u, v)
	})
	return order
}
