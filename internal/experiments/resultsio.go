package experiments

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/greenheft"
	"repro/internal/power"
	"repro/internal/wfgen"
)

// SweepRecord is the JSONL wire form of one sweep job: a Result whose
// Spec fields are flattened into stable, human-auditable strings (so
// result files survive refactors of the in-memory types), plus an error
// slot, so failed jobs (panic, timeout, invalid schedule) are archived
// in-band without aborting the sweep.
type SweepRecord struct {
	Family         string  `json:"family"`
	N              int     `json:"n"`
	Cluster        string  `json:"cluster"`
	Scenario       string  `json:"scenario"`
	DeadlineFactor float64 `json:"deadline_factor"`
	Seed           uint64  `json:"seed"`
	Zones          int     `json:"zones,omitempty"`   // ≥ 2: multi-zone family; absent in legacy records
	Mapping        string  `json:"mapping,omitempty"` // mapping-ablation family; absent for the fixed mapping
	Algo           string  `json:"algo"`
	Cost           int64   `json:"cost"`
	ElapsedMicros  int64   `json:"elapsed_us"`
	Err            string  `json:"err,omitempty"`
}

// recordOf flattens a Result into its wire form.
func recordOf(r Result) SweepRecord {
	zones := r.Spec.Zones
	if zones < 2 {
		zones = 0 // single-zone specs serialize like pre-zone records
	}
	return SweepRecord{
		Family:         r.Spec.Family.String(),
		N:              r.Spec.N,
		Cluster:        r.Spec.Cluster.String(),
		Scenario:       r.Spec.Scenario.String(),
		DeadlineFactor: r.Spec.DeadlineFactor,
		Seed:           r.Spec.Seed,
		Zones:          zones,
		Mapping:        r.Spec.Mapping,
		Algo:           r.Algo,
		Cost:           r.Cost,
		ElapsedMicros:  r.Elapsed.Microseconds(),
	}
}

// resultOf parses and validates a wire record back into a Result.
func resultOf(rec SweepRecord) (Result, error) {
	fam, err := familyByName(rec.Family)
	if err != nil {
		return Result{}, err
	}
	sc, err := scenarioByName(rec.Scenario)
	if err != nil {
		return Result{}, err
	}
	cl := Small
	switch rec.Cluster {
	case "small":
	case "large":
		cl = Large
	default:
		return Result{}, fmt.Errorf("unknown cluster %q", rec.Cluster)
	}
	if rec.DeadlineFactor < 1 {
		return Result{}, fmt.Errorf("deadline factor %v", rec.DeadlineFactor)
	}
	if rec.Cost < 0 {
		return Result{}, fmt.Errorf("negative cost")
	}
	if rec.Zones < 0 || rec.Zones == 1 {
		return Result{}, fmt.Errorf("bad zone count %d", rec.Zones)
	}
	if rec.Mapping != "" && rec.Mapping != MapSearch {
		if _, err := greenheft.ParsePolicy(rec.Mapping); err != nil {
			return Result{}, fmt.Errorf("unknown mapping %q", rec.Mapping)
		}
	}
	return Result{
		Spec: Spec{
			Family:         fam,
			N:              rec.N,
			Cluster:        cl,
			Scenario:       sc,
			DeadlineFactor: rec.DeadlineFactor,
			Seed:           rec.Seed,
			Zones:          rec.Zones,
			Mapping:        rec.Mapping,
		},
		Algo:    rec.Algo,
		Cost:    rec.Cost,
		Elapsed: time.Duration(rec.ElapsedMicros) * time.Microsecond,
	}, nil
}

// writeSweepRecord appends one record as a single JSONL line.
func writeSweepRecord(w io.Writer, rec SweepRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// ReadSweepRecords parses a JSONL stream written by Sweep. Blank lines are
// skipped, and a malformed final line — the torn tail a killed sweep can
// leave behind — is dropped so the file resumes cleanly (the lost job
// simply re-runs); corruption anywhere earlier is still an error.
func ReadSweepRecords(r io.Reader) ([]SweepRecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var recs []SweepRecord
	lineNo := 0
	var badErr error
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if badErr != nil {
			return nil, badErr
		}
		var rec SweepRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			// Defer the error: fatal only if another record follows.
			badErr = fmt.Errorf("experiments: sweep line %d: %w", lineNo, err)
			continue
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

// SweepDoneKeys returns the job keys of every successfully completed
// record, the skip set a resumed Sweep consumes. Malformed or failed
// records are left out so they re-run.
func SweepDoneKeys(recs []SweepRecord) map[string]bool {
	done := make(map[string]bool, len(recs))
	for _, rec := range recs {
		if rec.Err != "" {
			continue
		}
		res, err := resultOf(rec)
		if err != nil {
			continue
		}
		done[jobKey(res.Spec, res.Algo)] = true
	}
	return done
}

// SweepResults converts the successful records of a sweep back into
// Results for aggregation; failed records are dropped.
func SweepResults(recs []SweepRecord) ([]Result, error) {
	var out []Result
	for i, rec := range recs {
		if rec.Err != "" {
			continue
		}
		res, err := resultOf(rec)
		if err != nil {
			return nil, fmt.Errorf("experiments: sweep record %d: %w", i, err)
		}
		out = append(out, res)
	}
	return out, nil
}

func familyByName(name string) (wfgen.Family, error) {
	for _, f := range wfgen.Families() {
		if f.String() == name {
			return f, nil
		}
	}
	return 0, fmt.Errorf("unknown family %q", name)
}

func scenarioByName(name string) (power.Scenario, error) {
	for _, s := range power.Scenarios() {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown scenario %q", name)
}
