package power

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/rng"
	"repro/internal/scherr"
)

// Scenario identifies one of the four renewable-energy shapes of
// Section 6.1.
type Scenario int

const (
	// S1 is a −x² shape: little green power in the beginning, rising
	// supply, falling again (solar power from morning to evening).
	S1 Scenario = iota + 1
	// S2 is an x² shape: the same situation as S1 but starting from
	// midday — high at the boundaries, low in the middle.
	S2
	// S3 is a sin(x) shape over [0, 2π]: 24 hours with little green power
	// in the beginning, a peak, then a trough.
	S3
	// S4 is a constant budget with perturbations (storage for renewables,
	// or nuclear power — the France setting of Wiesner et al.).
	S4
)

// Scenarios lists all four scenarios in order.
func Scenarios() []Scenario { return []Scenario{S1, S2, S3, S4} }

// ParseScenario resolves a scenario name ("S1".."S4", case-insensitive)
// to its Scenario. It is the inverse of Scenario.String and the single
// parser shared by the CLIs and the service wire format.
func ParseScenario(name string) (Scenario, error) {
	for _, sc := range Scenarios() {
		if strings.EqualFold(sc.String(), name) {
			return sc, nil
		}
	}
	return 0, fmt.Errorf("power: unknown scenario %q (want S1, S2, S3 or S4)", name)
}

// String returns the scenario name as used in the paper (S1..S4).
func (s Scenario) String() string {
	switch s {
	case S1:
		return "S1"
	case S2:
		return "S2"
	case S3:
		return "S3"
	case S4:
		return "S4"
	default:
		return fmt.Sprintf("Scenario(%d)", int(s))
	}
}

// shape returns the scenario's base curve value in [0, 1] at normalized
// time x ∈ [0, 1].
func (s Scenario) shape(x float64) float64 {
	switch s {
	case S1:
		// Downward parabola peaking at midday, zero at the boundaries.
		return 1 - (2*x-1)*(2*x-1)
	case S2:
		// Upward parabola: trough at midday, full supply at boundaries.
		return (2*x - 1) * (2*x - 1)
	case S3:
		// One sine period starting low: −cos maps [0,1] → starts at 0,
		// peaks at x=0.5, returns to 0 — with the sine's characteristic
		// asymmetric ramp ("little green power in the beginning and then
		// we follow a sinus shape").
		return (1 - math.Cos(2*math.Pi*x)) / 2
	case S4:
		return 0.5
	default:
		panic("power: unknown scenario")
	}
}

// perturbation is the relative amplitude of the random noise applied to
// each interval budget.
const perturbation = 0.1

// MaxIntervals bounds the interval count of a generated profile: about a
// third of what the 8 MiB request-body bound lets an explicit profile
// carry, and far above any forecast resolution.
const MaxIntervals = 1 << 16

// Generate builds a green power profile for the given scenario over horizon
// [0, T) with J intervals of near-equal length; J above MaxIntervals is
// scherr.ErrInvalidRequest. Budgets follow the scenario shape scaled into
// [gmin, gmax] with ±10% random perturbations and are clamped to
// [gmin, gmax].
//
// Per Section 6.1, callers should pass gmin = Σ P_idle and
// gmax = Σ P_idle + 0.8·Σ P_work of the target platform, so that scheduling
// decisions actually matter (neither starved of green power nor saturated).
func Generate(sc Scenario, T int64, J int, gmin, gmax int64, r *rng.RNG) (*Profile, error) {
	if T <= 0 {
		return nil, fmt.Errorf("power: horizon T=%d must be positive", T)
	}
	if J <= 0 {
		return nil, fmt.Errorf("power: J=%d must be positive", J)
	}
	if J > MaxIntervals {
		return nil, fmt.Errorf("%w: power: J=%d intervals, at most %d", scherr.ErrInvalidRequest, J, MaxIntervals)
	}
	if gmax < gmin {
		return nil, fmt.Errorf("power: gmax=%d < gmin=%d", gmax, gmin)
	}
	if int64(J) > T {
		J = int(T) // every interval needs length ≥ 1
	}
	lengths := make([]int64, J)
	base := T / int64(J)
	extra := T % int64(J)
	for j := range lengths {
		lengths[j] = base
		if int64(j) < extra {
			lengths[j]++
		}
	}
	budgets := make([]int64, J)
	var t int64
	span := float64(gmax - gmin)
	for j := range budgets {
		mid := float64(t) + float64(lengths[j])/2
		x := mid / float64(T)
		g := float64(gmin) + sc.shape(x)*span
		g *= 1 + perturbation*(2*r.Float64()-1)
		gi := int64(math.Round(g))
		if gi < gmin {
			gi = gmin
		}
		if gi > gmax {
			gi = gmax
		}
		budgets[j] = gi
		t += lengths[j]
	}
	return NewProfile(lengths, budgets)
}

// PlatformBounds returns the paper's green-power corridor for a platform
// with the given summed idle and work powers: [Σidle, Σidle + 0.8·Σwork].
func PlatformBounds(sumIdle, sumWork int64) (gmin, gmax int64) {
	return sumIdle, sumIdle + (8*sumWork)/10
}
