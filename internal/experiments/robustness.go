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
	_ = workers
	opt := core.Options{Score: core.ScorePressureW, Refined: true, LocalSearch: true}
	for _, sd := range noiseLevels {
		var realized, planned []float64
		missCawo, missASAP := 0, 0
		for _, spec := range specs {
			in, err := BuildInstance(spec)
			if err != nil {
				return nil, err
			}
			if in.Prof == nil {
				return nil, fmt.Errorf("experiments: robustness on %s: multi-zone specs (the replay simulator is single-zone): %w", spec, scherr.ErrUnsupported)
			}
			plan, st, err := core.Run(ctx, in.Inst, in.Zones, opt)
			if err != nil {
				return nil, fmt.Errorf("experiments: robustness on %s: %w", spec, err)
			}
			asap := core.ASAP(in.Inst)
			noise := sim.Noise{RelStdDev: sd, Seed: spec.Seed}
			resPlan, err := sim.Execute(in.Inst, plan, in.Prof, noise)
			if err != nil {
				return nil, err
			}
			resASAP, err := sim.Execute(in.Inst, asap, in.Prof, noise)
			if err != nil {
				return nil, err
			}
			realized = append(realized, stats.CostRatio(float64(resPlan.Cost), float64(resASAP.Cost)))
			asapPlanned := schedule.CarbonCost(in.Inst, asap, in.Zones)
			planned = append(planned, stats.CostRatio(float64(st.Cost), float64(asapPlanned)))
			if !resPlan.DeadlineMet {
				missCawo++
			}
			if !resASAP.DeadlineMet {
				missASAP++
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", sd),
			f3(stats.Median(realized)),
			f3(stats.Median(planned)),
			pct(float64(missCawo) / float64(len(specs))),
			pct(float64(missASAP) / float64(len(specs))),
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
	_ = workers
	opt := core.Options{Score: core.ScorePressureW, Refined: true, LocalSearch: true}
	for _, base := range errorLevels {
		var ratios, regrets []float64
		for _, spec := range specs {
			in, err := BuildInstance(spec)
			if err != nil {
				return nil, err
			}
			if in.Prof == nil {
				return nil, fmt.Errorf("experiments: robustness on %s: multi-zone specs (the replay simulator is single-zone): %w", spec, scherr.ErrUnsupported)
			}
			fe := sim.ForecastError{Base: base, Growth: base, Seed: spec.Seed}
			forecast := fe.Forecast(in.Prof)
			plan, _, err := core.Run(ctx, in.Inst, power.SingleZone(forecast), opt)
			if err != nil {
				return nil, fmt.Errorf("experiments: forecast robustness on %s: %w", spec, err)
			}
			perfect, _, err := core.Run(ctx, in.Inst, in.Zones, opt)
			if err != nil {
				return nil, err
			}
			realized := schedule.CarbonCost(in.Inst, plan, in.Zones)
			perfectCost := schedule.CarbonCost(in.Inst, perfect, in.Zones)
			asapCost := schedule.CarbonCost(in.Inst, core.ASAP(in.Inst), in.Zones)
			ratios = append(ratios, stats.CostRatio(float64(realized), float64(asapCost)))
			regrets = append(regrets, stats.CostRatio(float64(realized), float64(perfectCost)))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", base),
			f3(stats.Median(ratios)),
			f3(stats.Median(regrets)),
		})
	}
	return t, nil
}
