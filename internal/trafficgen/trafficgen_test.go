package trafficgen

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseGrammar(t *testing.T) {
	cfg, err := Parse("heavytail:unresp=0.1,urate=350,elephants=0.3,settle=30s")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if cfg.Kind != KindHeavyTail || cfg.UnresponsiveFrac != 0.1 || cfg.UnresponsiveRate != 350 {
		t.Errorf("heavytail config = %+v", cfg)
	}
	if cfg.ElephantFrac != 0.3 || cfg.Settle != 30*time.Second {
		t.Errorf("heavytail config = %+v", cfg)
	}

	cfg, err = Parse("churn:heavy=0.25,period=10s,flash=0.2")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if cfg.Kind != KindChurn || cfg.HeavyFrac != 0.25 || cfg.ChurnPeriod != 10*time.Second {
		t.Errorf("churn config = %+v", cfg)
	}

	cfg, err = Parse("heavytail:eweight=6,mweight=2,alpha=1.5,lifemin=3s,lifemax=20s")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if cfg.ElephantWeight != 6 || cfg.MiceWeight != 2 || cfg.ParetoAlpha != 1.5 {
		t.Errorf("heavytail config = %+v", cfg)
	}
	if cfg.MiceLifeMin != 3*time.Second || cfg.MiceLifeMax != 20*time.Second {
		t.Errorf("mice lifetimes = %+v", cfg)
	}

	cfg, err = Parse("churn:hweight=8,flashat=30s,flashspread=4s,flashlife=12s")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if cfg.HeavyWeight != 8 || cfg.FlashAt != 30*time.Second || cfg.FlashSpread != 4*time.Second || cfg.FlashLife != 12*time.Second {
		t.Errorf("churn config = %+v", cfg)
	}

	if cfg, err := Parse("uniform"); err != nil || cfg.Kind != KindUniform {
		t.Errorf("bare kind: %+v, %v", cfg, err)
	}

	if _, err := Parse("tsunami:x=1"); err == nil {
		t.Error("Parse accepted unknown kind")
	}
	if _, err := Parse("uniform:spin=1"); err == nil {
		t.Error("Parse accepted unknown option")
	}
	if _, err := Parse("churn:flash"); err == nil {
		t.Error("Parse accepted a value-less option")
	}
	if _, err := Parse("churn:period=fast"); err == nil {
		t.Error("Parse accepted a non-duration period")
	}
}

func TestKindString(t *testing.T) {
	for kind, want := range map[Kind]string{
		KindUniform:   "uniform",
		KindHeavyTail: "heavytail",
		KindChurn:     "churn",
		Kind(9):       "Kind(9)",
	} {
		if got := kind.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(kind), got, want)
		}
	}
}

func TestUniform(t *testing.T) {
	cfg := Config{Kind: KindUniform, Horizon: 10 * time.Second}
	wl, err := cfg.Generate(1, 5)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(wl.Weights) != 5 || len(wl.Schedules) != 0 || len(wl.Unresponsive) != 0 {
		t.Errorf("uniform workload = %+v", wl)
	}
	for f, w := range wl.Weights {
		if w != 1 {
			t.Errorf("flow %d weight %v, want 1", f, w)
		}
	}
	// Uniform flows are always-on, so the horizon never conflicts with the
	// (irrelevant) settle default.
	if _, err := cfg.Generate(1, 1); err != nil {
		t.Errorf("short-horizon uniform rejected: %v", err)
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := (Config{Kind: KindChurn, Horizon: time.Minute}).Generate(1, 0); err == nil {
		t.Error("Generate accepted zero flows")
	}
	if _, err := (Config{Kind: KindChurn}).Generate(1, 8); err == nil {
		t.Error("Generate accepted a zero horizon")
	}
	// 30s horizon < the 45s default settle tail.
	if _, err := (Config{Kind: KindChurn, Horizon: 30 * time.Second}).Generate(1, 8); err == nil {
		t.Error("Generate accepted a horizon shorter than the settle tail")
	}
	if _, err := (Config{Horizon: time.Minute}).Generate(1, 8); err == nil {
		t.Error("Generate accepted a kind-less config")
	}
}

// TestRejectOutOfRange feeds each range-checked key an out-of-range value
// through the CLI grammar and the Config struct: both must fail, naming the
// key. Boundary values stay accepted.
func TestRejectOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		spec string
		key  string
	}{
		{"heavytail:unresp=2", "unresp"},
		{"heavytail:elephants=-0.5", "elephants"},
		{"churn:heavy=1.5", "heavy"},
		{"churn:flash=-0.1", "flash"},
		{"heavytail:elephants=NaN", "elephants"},
		{"heavytail:eweight=-1", "eweight"},
		{"heavytail:mweight=-2", "mweight"},
		{"churn:hweight=-4", "hweight"},
		{"heavytail:urate=-350", "urate"},
		{"heavytail:urate=inf", "urate"},
		{"heavytail:settle=-1s", "settle"},
		{"heavytail:lifemin=-5s", "lifemin"},
		{"heavytail:lifemax=-30s", "lifemax"},
		{"churn:period=-16s", "period"},
		{"churn:flashat=-1s", "flashat"},
		{"churn:flashspread=-2s", "flashspread"},
		{"churn:flashlife=-15s", "flashlife"},
	} {
		_, err := Parse(tc.spec)
		if err == nil || !strings.Contains(err.Error(), tc.key+"=") {
			t.Errorf("Parse(%q) = %v, want an error naming %s", tc.spec, err, tc.key)
		}
	}
	cfg := Config{Kind: KindHeavyTail, Horizon: 2 * time.Minute, UnresponsiveFrac: 2}
	if _, err := cfg.Generate(1, 8); err == nil || !strings.Contains(err.Error(), "unresp=") {
		t.Errorf("Generate with UnresponsiveFrac 2 = %v, want an error naming unresp", err)
	}
	for _, spec := range []string{"heavytail:unresp=1,elephants=0", "churn:heavy=1,flash=0"} {
		if _, err := Parse(spec); err != nil {
			t.Errorf("Parse(%q) rejected a boundary value: %v", spec, err)
		}
	}
}

// settleTailConstant asserts the generator contract the fairness oracle
// depends on: no activity interval starts or stops strictly inside
// (horizon-settle, horizon), so flow membership is constant over the
// settle tail.
func settleTailConstant(t *testing.T, wl Workload, horizon, settle time.Duration) {
	t.Helper()
	churnStop := horizon - settle
	for f, sched := range wl.Schedules {
		for _, iv := range sched {
			if iv.Start > churnStop {
				t.Errorf("flow %d starts at %v, inside the settle tail (churn stop %v)", f, iv.Start, churnStop)
			}
			if iv.Stop > churnStop && iv.Stop < horizon {
				t.Errorf("flow %d stops at %v, inside the settle tail (churn stop %v)", f, iv.Stop, churnStop)
			}
		}
	}
}

func TestHeavyTailCohorts(t *testing.T) {
	const flows = 20
	cfg := Config{
		Kind:             KindHeavyTail,
		Horizon:          100 * time.Second,
		UnresponsiveFrac: 0.1,
		UnresponsiveRate: 350,
	}
	wl, err := cfg.Generate(1, flows)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(wl.Weights) != flows {
		t.Fatalf("weights for %d flows, want %d", len(wl.Weights), flows)
	}
	// 10% of 20 slots -> 2 unresponsive blasters, at the tail indices.
	if len(wl.Unresponsive) != 2 {
		t.Fatalf("unresponsive = %v, want 2 entries", wl.Unresponsive)
	}
	for _, f := range []int{19, 20} {
		if wl.Unresponsive[f] != 350 {
			t.Errorf("flow %d blast rate %v, want 350", f, wl.Unresponsive[f])
		}
		if wl.Weights[f] != 1 {
			t.Errorf("blaster %d weight %v, want the nominal 1", f, wl.Weights[f])
		}
		if _, scheduled := wl.Schedules[f]; scheduled {
			t.Errorf("blaster %d has a schedule; blasters run the whole horizon", f)
		}
	}
	// Elephants: default 25% of the 18 responsive slots -> 5, persistent
	// (Stop 0) with the default elephant weight 4.
	var elephants, mice int
	for f := 1; f <= flows-2; f++ {
		sched, ok := wl.Schedules[f]
		if !ok || len(sched) != 1 {
			t.Fatalf("flow %d schedule = %v, want one window", f, sched)
		}
		if sched[0].Stop == 0 {
			elephants++
			if wl.Weights[f] != 4 {
				t.Errorf("elephant %d weight %v, want 4", f, wl.Weights[f])
			}
		} else {
			mice++
			if wl.Weights[f] != 1 {
				t.Errorf("mouse %d weight %v, want 1", f, wl.Weights[f])
			}
		}
	}
	if elephants != 5 || mice != 13 {
		t.Errorf("cohorts = %d elephants + %d mice, want 5 + 13", elephants, mice)
	}
	settleTailConstant(t, wl, cfg.Horizon, 45*time.Second)
}

func TestChurnCohorts(t *testing.T) {
	const flows = 16
	cfg := Config{Kind: KindChurn, Horizon: 200 * time.Second, Settle: 100 * time.Second}
	wl, err := cfg.Generate(1, flows)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	// Defaults: 30% heavy (5 of 16), 25% flash (4), rest persistent base.
	var heavy, flash, base int
	for f := 1; f <= flows; f++ {
		sched, ok := wl.Schedules[f]
		switch {
		case !ok:
			base++
			if wl.Weights[f] != 1 {
				t.Errorf("base flow %d weight %v, want 1", f, wl.Weights[f])
			}
		case len(sched) > 1:
			heavy++
			if wl.Weights[f] != 4 {
				t.Errorf("heavy flow %d weight %v, want 4", f, wl.Weights[f])
			}
			if last := sched[len(sched)-1]; last.Stop != 0 {
				t.Errorf("heavy flow %d final interval %v must stay on through the settle tail", f, last)
			}
		default:
			flash++
			if sched[0].Stop == 0 {
				t.Errorf("flash flow %d never departs", f)
			}
		}
	}
	if heavy != 5 || flash != 4 || base != 7 {
		t.Errorf("cohorts = %d heavy + %d flash + %d base, want 5 + 4 + 7", heavy, flash, base)
	}
	settleTailConstant(t, wl, cfg.Horizon, cfg.Settle)
}

func TestDeterminism(t *testing.T) {
	for _, kind := range []Kind{KindHeavyTail, KindChurn} {
		cfg := Config{Kind: kind, Horizon: 120 * time.Second, UnresponsiveFrac: 0.1}
		a, err := cfg.Generate(9, 24)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		b, err := cfg.Generate(9, 24)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%v: same (config, seed, flows) produced different workloads", kind)
		}
		c, err := cfg.Generate(10, 24)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if reflect.DeepEqual(a.Schedules, c.Schedules) {
			t.Errorf("%v: different seeds produced identical schedules", kind)
		}
	}
}

func TestBoundedPareto(t *testing.T) {
	for _, u := range []float64{0, 0.25, 0.5, 0.75, 0.999} {
		x := boundedPareto(u, 1.2, 5, 30)
		if x < 5 || x > 30 {
			t.Errorf("boundedPareto(%v) = %v outside [5, 30]", u, x)
		}
	}
	if x := boundedPareto(0.5, 1.2, 7, 7); x != 7 {
		t.Errorf("degenerate bounds: got %v, want 7", x)
	}
}
