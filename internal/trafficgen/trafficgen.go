// Package trafficgen generates workload models over a set of flow slots:
// heavy-tailed mice/elephants with expovariate arrivals, flash-crowd
// bursts, large-scale weight churn, and unresponsive sources that ignore
// Corelite feedback (the CSFQ comparison the paper cares about). A
// generated Workload is plain data — per-flow weights, activity schedules
// the internal/workload layer drives directly, and the unresponsive flow
// set — so it composes with any topology whose flow indices are 1..N.
//
// Every generator leaves a tail of constant flow membership (Settle,
// default 45s) at the end of the horizon: the invariant checker's
// steady-window fairness comparison needs at least its MinSteady (40s) of
// unchanging membership to run at all, so arrivals, departures and churn
// waves all complete before horizon − Settle.
//
// The CLI grammar mirrors the struct:
//
//	heavytail:elephants=0.25,eweight=4,unresp=0.1,urate=900
//	churn:period=16s,heavy=0.3,hweight=4,flash=0.25,flashat=20s
//	uniform
package trafficgen

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

// Kind selects a workload family.
type Kind int

// Workload kinds.
const (
	// KindUniform gives every flow weight 1, always active.
	KindUniform Kind = iota + 1
	// KindHeavyTail mixes persistent weighted elephants, bounded-Pareto
	// mice arriving expovariately, and a fraction of unresponsive
	// blasters.
	KindHeavyTail
	// KindChurn cycles a heavy-weight cohort on and off and injects a
	// flash-crowd burst, for convergence-tail scenarios.
	KindChurn
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindUniform:
		return "uniform"
	case KindHeavyTail:
		return "heavytail"
	case KindChurn:
		return "churn"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Config parameterizes one generated workload. Zero-valued fields take the
// documented defaults in Generate.
type Config struct {
	Kind Kind

	// Horizon is the run length schedules are sized for. The scenario
	// layer fills it from the run duration when zero.
	Horizon time.Duration
	// Settle is the constant-membership tail left at the end of the
	// horizon (default 45s — above the checker's 40s MinSteady).
	Settle time.Duration

	// --- heavytail ---

	// ElephantFrac is the fraction of responsive flows that are
	// persistent elephants (default 0.25); the rest are mice.
	ElephantFrac float64
	// ElephantWeight / MiceWeight are the cohort weights (defaults 4 / 1).
	ElephantWeight float64
	MiceWeight     float64
	// ParetoAlpha is the bounded-Pareto shape for mice lifetimes
	// (default 1.2); MiceLifeMin/Max bound them (defaults 5s / 30s).
	ParetoAlpha float64
	MiceLifeMin time.Duration
	MiceLifeMax time.Duration
	// UnresponsiveFrac is the fraction of all flows that ignore feedback
	// and blast at UnresponsiveRate pkt/s from t=0 to the end (defaults
	// 0 / 1000 pkt/s).
	UnresponsiveFrac float64
	UnresponsiveRate float64

	// --- churn ---

	// ChurnPeriod is the heavy cohort's on/off half-period (default 16s).
	ChurnPeriod time.Duration
	// HeavyFrac is the fraction of flows in the churning heavy cohort
	// (default 0.3); HeavyWeight its weight (default 4).
	HeavyFrac   float64
	HeavyWeight float64
	// FlashFrac is the fraction of flows arriving as a flash crowd
	// (default 0.25) within FlashSpread (default 2s) of FlashAt (default
	// horizon/4), each living FlashLife (default 15s) plus jitter.
	FlashFrac   float64
	FlashAt     time.Duration
	FlashSpread time.Duration
	FlashLife   time.Duration
}

// Workload is a generated traffic assignment for flows 1..N.
type Workload struct {
	// Weights maps flow index -> weight (every flow present).
	Weights map[int]float64
	// Schedules maps flow index -> activity windows; absent means always
	// active.
	Schedules map[int]workload.Schedule
	// Unresponsive maps flow index -> blast rate in pkt/s for flows that
	// ignore congestion feedback.
	Unresponsive map[int]float64
}

// Parse reads the CLI grammar "kind:key=val,key=val".
func Parse(s string) (Config, error) {
	var cfg Config
	kind, rest, _ := strings.Cut(s, ":")
	switch kind {
	case "uniform":
		cfg.Kind = KindUniform
	case "heavytail":
		cfg.Kind = KindHeavyTail
	case "churn":
		cfg.Kind = KindChurn
	default:
		return cfg, fmt.Errorf("trafficgen: unknown workload kind %q (want uniform, heavytail or churn)", kind)
	}
	if rest == "" {
		return cfg, nil
	}
	for _, opt := range strings.Split(rest, ",") {
		k, v, ok := strings.Cut(opt, "=")
		if !ok {
			return cfg, fmt.Errorf("trafficgen: bad option %q (want key=value)", opt)
		}
		var err error
		switch k {
		case "settle":
			cfg.Settle, err = time.ParseDuration(v)
		case "elephants":
			cfg.ElephantFrac, err = strconv.ParseFloat(v, 64)
		case "eweight":
			cfg.ElephantWeight, err = strconv.ParseFloat(v, 64)
		case "mweight":
			cfg.MiceWeight, err = strconv.ParseFloat(v, 64)
		case "alpha":
			cfg.ParetoAlpha, err = strconv.ParseFloat(v, 64)
		case "lifemin":
			cfg.MiceLifeMin, err = time.ParseDuration(v)
		case "lifemax":
			cfg.MiceLifeMax, err = time.ParseDuration(v)
		case "unresp":
			cfg.UnresponsiveFrac, err = strconv.ParseFloat(v, 64)
		case "urate":
			cfg.UnresponsiveRate, err = strconv.ParseFloat(v, 64)
		case "period":
			cfg.ChurnPeriod, err = time.ParseDuration(v)
		case "heavy":
			cfg.HeavyFrac, err = strconv.ParseFloat(v, 64)
		case "hweight":
			cfg.HeavyWeight, err = strconv.ParseFloat(v, 64)
		case "flash":
			cfg.FlashFrac, err = strconv.ParseFloat(v, 64)
		case "flashat":
			cfg.FlashAt, err = time.ParseDuration(v)
		case "flashspread":
			cfg.FlashSpread, err = time.ParseDuration(v)
		case "flashlife":
			cfg.FlashLife, err = time.ParseDuration(v)
		default:
			return cfg, fmt.Errorf("trafficgen: unknown option %q for kind %s", k, cfg.Kind)
		}
		if err != nil {
			return cfg, fmt.Errorf("trafficgen: option %q: %v", opt, err)
		}
	}
	return cfg, cfg.Validate()
}

// Validate rejects out-of-range settings, naming each by its Parse key:
// fractions outside [0,1] and negative weights, rates and durations. Zero
// still selects a field's default.
func (c Config) Validate() error {
	for _, f := range []struct {
		key string
		v   float64
	}{
		{"elephants", c.ElephantFrac},
		{"unresp", c.UnresponsiveFrac},
		{"heavy", c.HeavyFrac},
		{"flash", c.FlashFrac},
	} {
		if !(f.v >= 0 && f.v <= 1) {
			return fmt.Errorf("trafficgen: %s=%v: want a fraction in [0,1]", f.key, f.v)
		}
	}
	for _, f := range []struct {
		key string
		v   float64
	}{
		{"eweight", c.ElephantWeight},
		{"mweight", c.MiceWeight},
		{"hweight", c.HeavyWeight},
		{"urate", c.UnresponsiveRate},
	} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("trafficgen: %s=%v: want a finite non-negative value", f.key, f.v)
		}
	}
	for _, f := range []struct {
		key string
		v   time.Duration
	}{
		{"settle", c.Settle},
		{"lifemin", c.MiceLifeMin},
		{"lifemax", c.MiceLifeMax},
		{"period", c.ChurnPeriod},
		{"flashat", c.FlashAt},
		{"flashspread", c.FlashSpread},
		{"flashlife", c.FlashLife},
	} {
		if f.v < 0 {
			return fmt.Errorf("trafficgen: %s=%v: want a non-negative duration", f.key, f.v)
		}
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Settle == 0 {
		c.Settle = 45 * time.Second
	}
	if c.ElephantFrac == 0 {
		c.ElephantFrac = 0.25
	}
	if c.ElephantWeight == 0 {
		c.ElephantWeight = 4
	}
	if c.MiceWeight == 0 {
		c.MiceWeight = 1
	}
	if c.ParetoAlpha == 0 {
		c.ParetoAlpha = 1.2
	}
	if c.MiceLifeMin == 0 {
		c.MiceLifeMin = 5 * time.Second
	}
	if c.MiceLifeMax == 0 {
		c.MiceLifeMax = 30 * time.Second
	}
	if c.UnresponsiveRate == 0 {
		c.UnresponsiveRate = 1000
	}
	if c.ChurnPeriod == 0 {
		c.ChurnPeriod = 16 * time.Second
	}
	if c.HeavyFrac == 0 {
		c.HeavyFrac = 0.3
	}
	if c.HeavyWeight == 0 {
		c.HeavyWeight = 4
	}
	if c.FlashFrac == 0 {
		c.FlashFrac = 0.25
	}
	if c.FlashAt == 0 {
		c.FlashAt = c.Horizon / 4
	}
	if c.FlashSpread == 0 {
		c.FlashSpread = 2 * time.Second
	}
	if c.FlashLife == 0 {
		c.FlashLife = 15 * time.Second
	}
	return c
}

// boundedPareto samples a bounded Pareto(alpha) value in [lo, hi] by
// inverse transform on the truncated CDF.
func boundedPareto(u, alpha, lo, hi float64) float64 {
	if lo >= hi {
		return lo
	}
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	x := math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
	if x < lo {
		x = lo
	}
	if x > hi {
		x = hi
	}
	return x
}

// Generate builds the workload for flows 1..flows. It is a pure function
// of (Config, seed, flows).
func (c Config) Generate(seed int64, flows int) (Workload, error) {
	if err := c.Validate(); err != nil {
		return Workload{}, err
	}
	c = c.withDefaults()
	if flows < 1 {
		return Workload{}, fmt.Errorf("trafficgen: need at least one flow, got %d", flows)
	}
	if c.Horizon <= 0 {
		return Workload{}, fmt.Errorf("trafficgen: config needs a positive horizon")
	}
	wl := Workload{
		Weights:      make(map[int]float64, flows),
		Schedules:    make(map[int]workload.Schedule),
		Unresponsive: make(map[int]float64),
	}
	if c.Kind == KindUniform {
		// Uniform flows are always-on: no schedules, so no settle tail to
		// reserve.
		for f := 1; f <= flows; f++ {
			wl.Weights[f] = 1
		}
		return wl, nil
	}
	churnStop := c.Horizon - c.Settle
	if churnStop <= 0 {
		return Workload{}, fmt.Errorf("trafficgen: horizon %v leaves no room for the %v settle tail", c.Horizon, c.Settle)
	}
	switch c.Kind {
	case KindHeavyTail:
		return c.heavyTail(seed, flows, wl, churnStop)
	case KindChurn:
		return c.churn(seed, flows, wl, churnStop)
	default:
		return Workload{}, fmt.Errorf("trafficgen: config has no kind set")
	}
}

// heavyTail assigns, in flow-index order: unresponsive blasters (the last
// UnresponsiveFrac of slots), then persistent elephants, then mice with
// expovariate arrivals and bounded-Pareto lifetimes, all departing before
// the settle tail.
func (c Config) heavyTail(seed int64, flows int, wl Workload, churnStop time.Duration) (Workload, error) {
	rng := sim.NewRNG(seed).Stream("trafficgen/heavytail")
	nUn := int(math.Round(c.UnresponsiveFrac * float64(flows)))
	if nUn >= flows {
		nUn = flows - 1
	}
	responsive := flows - nUn
	nEl := int(math.Round(c.ElephantFrac * float64(responsive)))
	if nEl < 1 {
		nEl = 1
	}
	// Mice pack the window between the elephants' ramp and the settle
	// tail; expovariate inter-arrival gaps with the mean chosen so the
	// expected last arrival still leaves room for a median lifetime.
	nMice := responsive - nEl
	arrStart := 2 * time.Second
	arrWindow := churnStop - arrStart - c.MiceLifeMin
	if arrWindow < 0 {
		arrWindow = 0
	}
	var meanGap float64
	if nMice > 0 {
		meanGap = arrWindow.Seconds() / float64(nMice)
	}
	at := arrStart.Seconds()
	for f := 1; f <= flows; f++ {
		switch {
		case f > flows-nUn:
			// Unresponsive blaster: weight 1 (its nominal contract — CSFQ
			// polices it to this share), active for the whole run.
			wl.Weights[f] = 1
			wl.Unresponsive[f] = c.UnresponsiveRate
		case f <= nEl:
			wl.Weights[f] = c.ElephantWeight
			start := time.Duration(rng.Float64() * 2 * float64(time.Second))
			wl.Schedules[f] = workload.Window(start, 0)
		default:
			wl.Weights[f] = c.MiceWeight
			at += rng.ExpFloat64() * meanGap
			start := time.Duration(at * float64(time.Second))
			if start > churnStop-c.MiceLifeMin {
				start = churnStop - c.MiceLifeMin
			}
			life := boundedPareto(rng.Float64(), c.ParetoAlpha,
				c.MiceLifeMin.Seconds(), c.MiceLifeMax.Seconds())
			stop := start + time.Duration(life*float64(time.Second))
			if stop > churnStop {
				stop = churnStop
			}
			wl.Schedules[f] = workload.Window(start, stop)
		}
	}
	return wl, nil
}

// churn assigns: a heavy cohort cycling on/off every ChurnPeriod (two
// anti-phase halves, ending on), a flash crowd arriving together and
// departing before the settle tail, and a persistent weight-1 base.
func (c Config) churn(seed int64, flows int, wl Workload, churnStop time.Duration) (Workload, error) {
	rng := sim.NewRNG(seed).Stream("trafficgen/churn")
	nHeavy := int(math.Round(c.HeavyFrac * float64(flows)))
	nFlash := int(math.Round(c.FlashFrac * float64(flows)))
	if nHeavy+nFlash >= flows {
		nFlash = flows - nHeavy - 1
		if nFlash < 0 {
			nFlash = 0
		}
	}
	flashAt := c.FlashAt
	if flashAt+c.FlashSpread+c.FlashLife >= churnStop {
		flashAt = churnStop - c.FlashSpread - c.FlashLife - time.Second
	}
	if flashAt < 0 {
		return wl, fmt.Errorf("trafficgen: horizon too short for a flash crowd (flashat %v)", c.FlashAt)
	}
	for f := 1; f <= flows; f++ {
		switch {
		case f <= nHeavy:
			wl.Weights[f] = c.HeavyWeight
			// Two anti-phase halves churn the active weight mix every
			// period; both halves stay on from the last toggle before the
			// settle tail to the end.
			offset := time.Duration(0)
			if f%2 == 0 {
				offset = c.ChurnPeriod
			}
			var sched workload.Schedule
			t := offset
			for t+c.ChurnPeriod < churnStop {
				sched = append(sched, workload.Interval{Start: t, Stop: t + c.ChurnPeriod})
				t += 2 * c.ChurnPeriod
			}
			// Final interval: on from the last toggle (no later than the
			// start of the settle tail) through the end of the run.
			if t > churnStop {
				t = churnStop
			}
			sched = append(sched, workload.Interval{Start: t, Stop: 0})
			wl.Schedules[f] = sched
		case f <= nHeavy+nFlash:
			wl.Weights[f] = 1
			start := flashAt + time.Duration(rng.Float64()*float64(c.FlashSpread))
			stop := start + c.FlashLife + time.Duration(rng.Float64()*5*float64(time.Second))
			if stop > churnStop {
				stop = churnStop
			}
			wl.Schedules[f] = workload.Window(start, stop)
		default:
			wl.Weights[f] = 1
		}
	}
	return wl, nil
}
