package core

// Options selects a CaWoSched variant.
type Options struct {
	// Score is the greedy's task-ordering criterion.
	Score Score
	// Refined enables the refined interval subdivision (suffix "R").
	Refined bool
	// LocalSearch enables the hill climber (suffix "-LS").
	LocalSearch bool
	// K is the maximum block length for the refinement; 0 means the
	// paper's default of 3.
	K int
	// Mu is the local search shift radius in time units; 0 means the
	// paper's default of 10.
	Mu int64
}

// DefaultK and DefaultMu are the tuning parameters used for all simulation
// results in Section 6 (k = 3, µ = 10).
const (
	DefaultK  = 3
	DefaultMu = 10
)

// EffectiveK returns K with the paper default applied.
func (o Options) EffectiveK() int {
	if o.K <= 0 {
		return DefaultK
	}
	return o.K
}

// EffectiveMu returns Mu with the paper default applied.
func (o Options) EffectiveMu() int64 {
	if o.Mu <= 0 {
		return DefaultMu
	}
	return o.Mu
}

// Name returns the paper's identifier for the variant, e.g. "slack",
// "pressWR-LS".
func (o Options) Name() string {
	name := ""
	switch o.Score {
	case ScoreSlack:
		name = "slack"
	case ScoreSlackW:
		name = "slackW"
	case ScorePressure:
		name = "press"
	case ScorePressureW:
		name = "pressW"
	}
	if o.Refined {
		name += "R"
	}
	if o.LocalSearch {
		name += "-LS"
	}
	return name
}

// Variants returns the 8 greedy variants (4 scores × 2 subdivisions),
// each with the given local search setting, in the paper's presentation
// order: slack, slackW, slackR, slackWR, press, pressW, pressR, pressWR.
func Variants(localSearch bool) []Options {
	ordered := make([]Options, 0, 8)
	for _, sc := range []Score{ScoreSlack, ScorePressure} {
		ordered = append(ordered,
			Options{Score: sc, LocalSearch: localSearch},
			Options{Score: sc + 1, LocalSearch: localSearch},
			Options{Score: sc, Refined: true, LocalSearch: localSearch},
			Options{Score: sc + 1, Refined: true, LocalSearch: localSearch},
		)
	}
	return ordered
}

// AllVariants returns all 16 heuristics: the 8 greedy variants with and
// without local search.
func AllVariants() []Options {
	return append(Variants(false), Variants(true)...)
}
