package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"

	cawosched "repro"
	"repro/internal/tenancy"
	"repro/internal/wire"
)

// Every check runs after the op's clock has stopped. A failed check
// counts the op as failed and makes the run incorrect.

// summary is what the checks and the per-round digest need from a solve.
type summary struct {
	cost, asapCost, deadline int64
	timings                  []wire.StageTiming
}

// solveBody is the part of a wire.SolveResponse the checks read; decoding
// only these fields keeps checking a round cheap.
type solveBody struct {
	Deadline int64              `json:"deadline"`
	Cost     int64              `json:"cost"`
	ASAPCost int64              `json:"asap_cost"`
	CacheHit bool               `json:"cache_hit"`
	Timings  []wire.StageTiming `json:"timings"`
}

// checkCosts rejects numbers no schedule can have. That a schedule costs
// no more than the ASAP baseline is not checked per op: the heuristic
// does not promise it, and on small workflows it is often not so. It is
// checked on the round's sums, where it is the paper's claim.
func checkCosts(cost, asapCost, deadline int64) error {
	if cost < 0 || asapCost < 0 || deadline <= 0 {
		return fmt.Errorf("cost %d, asap cost %d, deadline %d", cost, asapCost, deadline)
	}
	return nil
}

// checkHTTP checks one POST /v1/solve answer: status 200 and the cache
// flag the op's class expects.
func checkHTTP(status int, body []byte, wantHit bool) (summary, error) {
	if status != http.StatusOK {
		return summary{}, fmt.Errorf("status %d: %.200s", status, body)
	}
	var b solveBody
	if err := json.Unmarshal(body, &b); err != nil {
		return summary{}, fmt.Errorf("decoding response: %w", err)
	}
	if b.CacheHit != wantHit {
		return summary{}, fmt.Errorf("cache_hit is %v, the op's class expects %v", b.CacheHit, wantHit)
	}
	if err := checkCosts(b.Cost, b.ASAPCost, b.Deadline); err != nil {
		return summary{}, err
	}
	return summary{cost: b.Cost, asapCost: b.ASAPCost, deadline: b.Deadline, timings: b.Timings}, nil
}

// checkLibrary checks one Solver.Solve answer the same way, and validates
// the schedule against its instance and deadline.
func checkLibrary(resp *cawosched.Response, wantHit bool) (summary, error) {
	if resp.CacheHit != wantHit {
		return summary{}, fmt.Errorf("CacheHit is %v, the op's class expects %v", resp.CacheHit, wantHit)
	}
	if err := checkCosts(resp.Cost, resp.ASAPCost, resp.Deadline); err != nil {
		return summary{}, err
	}
	if err := cawosched.Validate(resp.Instance, resp.Schedule, resp.Deadline); err != nil {
		return summary{}, fmt.Errorf("schedule invalid: %w", err)
	}
	s := summary{cost: resp.Cost, asapCost: resp.ASAPCost, deadline: resp.Deadline}
	for _, t := range resp.Timings {
		s.timings = append(s.timings, wire.StageTiming{Stage: t.Stage, Micros: t.Micros})
	}
	return s, nil
}

// A round's digest folds what each op returned (op, cost, deadline) into
// one number; every round replays the same ops from the same state, so
// the digests of a run's rounds must be equal.

// historyDigest folds a manager's append-only placement history.
func historyDigest(events []tenancy.Event) uint64 {
	h := fnv.New64a()
	for _, e := range events {
		fmt.Fprintf(h, "%d %d %s %s %d %d %d %d %d %v\n",
			e.Seq, e.Time, e.Kind, e.ID, e.FP, e.Cost, e.PrevCost, e.Offset, e.Placement, e.Improved)
	}
	return h.Sum64()
}
