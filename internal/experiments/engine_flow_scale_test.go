package experiments

import (
	"math"
	"reflect"
	"testing"
	"time"
)

// scaleSpecScenario returns a normalized fat-tree scenario big enough
// (≥ flowsim.IncrementalMinFlows flows) to take the direct spec→fluid
// build and the allocator-based oracle, with a heavy-tailed workload so
// weights vary and some flows are unresponsive blasts.
func scaleSpecScenario(t *testing.T, scheme Scheme) Scenario {
	t.Helper()
	g, err := ParseGenerate("fattree:k=4,flows=300", "heavytail:elephants=0.2,eweight=4,unresp=0.05,urate=400")
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{
		Name:     "scale-spec",
		Scheme:   scheme,
		Backend:  BackendFlow,
		Duration: 60 * time.Second,
		Seed:     3,
		Generate: g,
	}
	norm, err := sc.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(norm.Spec.Flows) < 300 {
		t.Fatalf("generated only %d flows", len(norm.Spec.Flows))
	}
	if !specFullyPinned(norm.Spec) {
		t.Fatal("generated fat-tree spec is not fully pinned")
	}
	return norm
}

// TestDirectSpecBuildMatchesGeneric pins the interchangeability of the two
// spec→fluid builders: the direct one (no packet network) must produce the
// exact model — links, capacities, flows, placements — that the generic
// cloud-based builder does, with and without cross traffic eating into
// fabric links.
func TestDirectSpecBuildMatchesGeneric(t *testing.T) {
	plain := scaleSpecScenario(t, SchemeCorelite)
	cross := plain
	cross.Cross = []CrossTraffic{
		{Link: "p0a0->cs0", Rate: 20},
		{Link: "cs1->p1a0", Rate: 30, MeanOn: time.Second, MeanOff: time.Second},
		{Link: "p0a0->cs0", Rate: 5},
	}
	for name, sc := range map[string]Scenario{"plain": plain, "cross": cross} {
		direct, err := buildSpecModelDirect(sc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		generic, err := buildCloudModel(sc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(direct.model.Links, generic.model.Links) {
			t.Errorf("%s: link tables differ: direct has %d links, generic %d",
				name, len(direct.model.Links), len(generic.model.Links))
		}
		if !reflect.DeepEqual(direct.model.Flows, generic.model.Flows) {
			t.Errorf("%s: flow tables differ: direct has %d flows, generic %d",
				name, len(direct.model.Flows), len(generic.model.Flows))
		}
		if !reflect.DeepEqual(direct.placements, generic.placements) {
			t.Errorf("%s: placements differ between direct and generic spec builds", name)
		}
	}
	bad := plain
	bad.Cross = []CrossTraffic{{Link: "nowhere->cs0", Rate: 1}}
	if _, err := buildSpecModelDirect(bad); err == nil {
		t.Error("direct build accepted cross traffic on an unknown link")
	}
}

// TestFlowExpectedRatesLargeMatchesMaxmin pins the oracle swap: on a large
// model the allocator-based expected-rate computation must agree with the
// map-based maxmin reference within 1e-6 relative, under both schemes'
// unresponsive-flow conventions.
func TestFlowExpectedRatesLargeMatchesMaxmin(t *testing.T) {
	for _, scheme := range []Scheme{SchemeCorelite, SchemeCSFQ} {
		sc := scaleSpecScenario(t, scheme)
		fm, err := buildSpecModelDirect(sc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := flowExpectedRatesMaxmin(sc, fm, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := flowExpectedRatesLarge(sc, fm, nil)
		if len(got) != len(want) {
			t.Fatalf("%v: allocator oracle covers %d flows, maxmin %d", scheme, len(got), len(want))
		}
		for idx, w := range want {
			g, ok := got[idx]
			if !ok {
				t.Fatalf("%v: flow %d missing from allocator oracle", scheme, idx)
			}
			if math.Abs(g-w) > 1e-6*math.Max(1, math.Abs(w)) {
				t.Errorf("%v: flow %d expected rate %.9g (allocator) vs %.9g (maxmin)", scheme, idx, g, w)
			}
		}
	}
}
