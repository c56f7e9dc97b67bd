package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/scherr"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The robustness studies run one cell per spec on the package's worker
// pool. Within a cell, everything that does not depend on the noise or
// error level (the instance, the ASAP schedule, the nominal or
// perfect-information plan) is computed once and shared by every level.

// RobustnessRuntime studies how the carbon savings survive runtime
// mis-prediction: schedules are planned with the instance's nominal
// durations (pressWR-LS vs ASAP) and then executed with multiplicative
// runtime noise; both plans experience identical per-task noise. Reported
// per noise level: the median realized cost ratio (CaWoSched execution /
// ASAP execution) and each plan's deadline-miss rate.
func RobustnessRuntime(ctx context.Context, specs []Spec, noiseLevels []float64, workers int) (*Table, error) {
	t := &Table{
		Title:   "Robustness: runtime noise vs realized carbon savings",
		Columns: []string{"noise_sd", "median_realized_ratio", "planned_ratio", "miss_rate_cawo", "miss_rate_asap"},
		Note:    fmt.Sprintf("%d instances; pressWR-LS vs ASAP, identical noise per task", len(specs)),
	}
	opt := core.Options{Score: core.ScorePressureW, Refined: true, LocalSearch: true}
	planned := make([]float64, len(specs))
	// [level][spec]; a miss is 1, a met deadline 0.
	realized := matrix(len(noiseLevels), len(specs))
	missCawo, missASAP := matrix(len(noiseLevels), len(specs)), matrix(len(noiseLevels), len(specs))
	err := forEach(ctx, len(specs), workers, func(i int) error {
		spec := specs[i]
		in, err := singleZoneInstance(spec)
		if err != nil {
			return err
		}
		plan, st, err := core.Run(ctx, in.Inst, in.Zones, opt)
		if err != nil {
			return fmt.Errorf("experiments: robustness on %s: %w", spec, err)
		}
		asap := core.ASAP(in.Inst)
		planned[i] = stats.CostRatio(float64(st.Cost), float64(schedule.CarbonCost(in.Inst, asap, in.Zones)))
		for l, sd := range noiseLevels {
			noise := sim.Noise{RelStdDev: sd, Seed: spec.Seed}
			resPlan, err := sim.Execute(in.Inst, plan, in.Zones.Profile(0), noise)
			if err != nil {
				return err
			}
			resASAP, err := sim.Execute(in.Inst, asap, in.Zones.Profile(0), noise)
			if err != nil {
				return err
			}
			realized[l][i] = stats.CostRatio(float64(resPlan.Cost), float64(resASAP.Cost))
			if !resPlan.DeadlineMet {
				missCawo[l][i] = 1
			}
			if !resASAP.DeadlineMet {
				missASAP[l][i] = 1
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for l, sd := range noiseLevels {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", sd),
			f3(stats.Median(realized[l])),
			f3(stats.Median(planned)),
			pct(stats.Mean(missCawo[l])),
			pct(stats.Mean(missASAP[l])),
		})
	}
	return t, nil
}

// RobustnessForecast studies forecast accuracy (the Wiesner et al. axis):
// the plan is optimized against a forecast profile derived from the true
// one with lead-time-growing error, then evaluated against the truth.
// Reported per error level: the median realized cost ratio vs ASAP (which
// ignores the profile and is therefore forecast-immune) and the median
// regret vs planning on perfect information.
func RobustnessForecast(ctx context.Context, specs []Spec, errorLevels []float64, workers int) (*Table, error) {
	t := &Table{
		Title:   "Robustness: forecast error vs realized carbon savings",
		Columns: []string{"base_err", "median_realized_ratio", "median_regret"},
		Note: fmt.Sprintf(
			"%d instances; pressWR-LS planned on forecast, evaluated on actual; regret = realized cost / perfect-information cost",
			len(specs)),
	}
	opt := core.Options{Score: core.ScorePressureW, Refined: true, LocalSearch: true}
	ratios, regrets := matrix(len(errorLevels), len(specs)), matrix(len(errorLevels), len(specs)) // [level][spec]
	err := forEach(ctx, len(specs), workers, func(i int) error {
		spec := specs[i]
		in, err := singleZoneInstance(spec)
		if err != nil {
			return err
		}
		perfect, _, err := core.Run(ctx, in.Inst, in.Zones, opt)
		if err != nil {
			return err
		}
		perfectCost := schedule.CarbonCost(in.Inst, perfect, in.Zones)
		asapCost := schedule.CarbonCost(in.Inst, core.ASAP(in.Inst), in.Zones)
		for l, base := range errorLevels {
			fe := sim.ForecastError{Base: base, Growth: base, Seed: spec.Seed}
			plan, _, err := core.Run(ctx, in.Inst, power.SingleZone(fe.Forecast(in.Zones.Profile(0))), opt)
			if err != nil {
				return fmt.Errorf("experiments: forecast robustness on %s: %w", spec, err)
			}
			realized := schedule.CarbonCost(in.Inst, plan, in.Zones)
			ratios[l][i] = stats.CostRatio(float64(realized), float64(asapCost))
			regrets[l][i] = stats.CostRatio(float64(realized), float64(perfectCost))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for l, base := range errorLevels {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", base),
			f3(stats.Median(ratios[l])),
			f3(stats.Median(regrets[l])),
		})
	}
	return t, nil
}

// singleZoneInstance builds a spec's instance for the replay simulator,
// which runs on the cluster-wide profile of the single-zone corpus.
func singleZoneInstance(spec Spec) (*Instance, error) {
	in, err := BuildInstance(spec)
	if err != nil {
		return nil, err
	}
	if !in.Zones.Single() {
		return nil, fmt.Errorf("experiments: robustness on %s: multi-zone specs (the replay simulator is single-zone): %w", spec, scherr.ErrUnsupported)
	}
	return in, nil
}
