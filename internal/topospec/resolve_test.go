package topospec_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/topogen"
	"repro/internal/topospec"
)

// validateMapOracle is the name-keyed validator Resolve replaced: a role
// map, a [2]string link set and a fresh on-path map per flow. It is the
// differential reference for Resolve's error choice and order.
func validateMapOracle(s *topospec.Spec) error {
	roles := make(map[string]topospec.NodeRole, len(s.Nodes))
	for _, n := range s.Nodes {
		if _, dup := roles[n.Name]; dup {
			return fmt.Errorf("topospec: duplicate node %q", n.Name)
		}
		roles[n.Name] = n.Role
	}
	haveLink := make(map[[2]string]bool, len(s.Links))
	for _, l := range s.Links {
		if roles[l.From] == 0 {
			return fmt.Errorf("topospec: link references unknown node %q", l.From)
		}
		if roles[l.To] == 0 {
			return fmt.Errorf("topospec: link references unknown node %q", l.To)
		}
		if l.RateBps <= 0 {
			return fmt.Errorf("topospec: link %s->%s needs a positive rate", l.From, l.To)
		}
		if l.Delay < 0 {
			return fmt.Errorf("topospec: link %s->%s has negative delay", l.From, l.To)
		}
		haveLink[[2]string{l.From, l.To}] = true
	}
	seen := make(map[int]bool, len(s.Flows))
	if len(s.Flows) == 0 {
		return fmt.Errorf("topospec: no flows declared")
	}
	viaIn := make(map[string]int)
	viaOut := make(map[string]int)
	for _, f := range s.Flows {
		if seen[f.Index] {
			return fmt.Errorf("topospec: duplicate flow index %d", f.Index)
		}
		seen[f.Index] = true
		if roles[f.Ingress] != topospec.RoleEdge {
			return fmt.Errorf("topospec: flow %d ingress %q is not an edge node", f.Index, f.Ingress)
		}
		if roles[f.Egress] != topospec.RoleEdge {
			return fmt.Errorf("topospec: flow %d egress %q is not an edge node", f.Index, f.Egress)
		}
		if len(f.Relays) > 0 && len(f.Via) == 0 {
			return fmt.Errorf("topospec: flow %d declares relays without a via path", f.Index)
		}
		if len(f.Via) == 0 {
			continue
		}
		if f.Via[0] != f.Ingress || f.Via[len(f.Via)-1] != f.Egress {
			return fmt.Errorf("topospec: flow %d via path must run ingress -> egress (%s -> %s)", f.Index, f.Ingress, f.Egress)
		}
		if len(f.Via) < 2 {
			return fmt.Errorf("topospec: flow %d via path needs at least two nodes", f.Index)
		}
		onPath := make(map[string]bool, len(f.Via))
		for i, name := range f.Via {
			if roles[name] == 0 {
				return fmt.Errorf("topospec: flow %d via references unknown node %q", f.Index, name)
			}
			if onPath[name] {
				return fmt.Errorf("topospec: flow %d via path visits %q twice", f.Index, name)
			}
			onPath[name] = true
			if i+1 < len(f.Via) && !haveLink[[2]string{name, f.Via[i+1]}] {
				return fmt.Errorf("topospec: flow %d via hop %s->%s has no link (disconnected path)", f.Index, name, f.Via[i+1])
			}
		}
		if prev, dup := viaIn[f.Ingress]; dup {
			return fmt.Errorf("topospec: flows %d and %d share via ingress %q (hosts must be uniquely wired)", prev, f.Index, f.Ingress)
		}
		if prev, dup := viaOut[f.Egress]; dup {
			return fmt.Errorf("topospec: flows %d and %d share via egress %q (hosts must be uniquely wired)", prev, f.Index, f.Egress)
		}
		viaIn[f.Ingress] = f.Index
		viaOut[f.Egress] = f.Index
		for _, rel := range f.Relays {
			if !onPath[rel] {
				return fmt.Errorf("topospec: flow %d relay %q is not on the via path", f.Index, rel)
			}
			if rel == f.Ingress || rel == f.Egress {
				return fmt.Errorf("topospec: flow %d relay %q cannot be an endpoint", f.Index, rel)
			}
			if roles[rel] != topospec.RoleEdge {
				return fmt.Errorf("topospec: flow %d relay %q is not an edge node", f.Index, rel)
			}
		}
	}
	return nil
}

// corrupt applies one random damage to s, of the kinds a buggy generator
// or a hand-edited spec would carry.
func corrupt(rng *rand.Rand, s *topospec.Spec) {
	node := func() string { return s.Nodes[rng.Intn(len(s.Nodes))].Name }
	flow := func() *topospec.FlowSpec { return &s.Flows[rng.Intn(len(s.Flows))] }
	link := func() *topospec.LinkSpec { return &s.Links[rng.Intn(len(s.Links))] }
	switch rng.Intn(16) {
	case 0: // rename a node: its links and flows now name an unknown node
		s.Nodes[rng.Intn(len(s.Nodes))].Name = "ghost"
	case 1:
		s.Nodes = append(s.Nodes, s.Nodes[rng.Intn(len(s.Nodes))])
	case 2: // drop a link
		i := rng.Intn(len(s.Links))
		s.Links = append(s.Links[:i:i], s.Links[i+1:]...)
	case 3: // re-declare a link with another rate: valid, last one wins
		l := *link()
		l.RateBps *= 2
		s.Links = append(s.Links, l)
	case 4:
		link().RateBps = 0
	case 5:
		link().Delay = -1
	case 6: // swap two via entries
		if f := flow(); len(f.Via) > 2 {
			i, j := rng.Intn(len(f.Via)), rng.Intn(len(f.Via))
			f.Via = append([]string(nil), f.Via...)
			f.Via[i], f.Via[j] = f.Via[j], f.Via[i]
		}
	case 7: // a via entry names some other node
		if f := flow(); len(f.Via) > 0 {
			f.Via = append([]string(nil), f.Via...)
			f.Via[rng.Intn(len(f.Via))] = node()
		}
	case 8: // share another flow's endpoints
		a, b := flow(), flow()
		a.Ingress, a.Egress, a.Via = b.Ingress, b.Egress, append([]string(nil), b.Via...)
	case 9:
		f := flow()
		f.Relays = append(append([]string(nil), f.Relays...), node())
	case 10:
		flow().Index = s.Flows[0].Index
	case 11:
		flow().Ingress = node()
	case 12:
		flow().Via = nil
	case 13:
		if f := flow(); len(f.Via) > 0 {
			f.Via = f.Via[:1]
		}
	case 14:
		s.Nodes[rng.Intn(len(s.Nodes))].Role = 0
	case 15:
		s.Flows = nil
	}
}

// TestResolveMatchesMapOracle pins Resolve (and so Validate) to the
// name-keyed validator it replaced: on thousands of randomly damaged
// generated specs, both report the same first error, word for word, or
// both accept.
func TestResolveMatchesMapOracle(t *testing.T) {
	gens := []string{"fattree:k=4,flows=6", "nclouds:n=3,through=2,local=1,remark=1", "mesh:nodes=6,flows=4"}
	rng := rand.New(rand.NewSource(1))
	accepted, rejected := 0, 0
	for i := 0; i < 6000; i++ {
		cfg, err := topogen.Parse(gens[i%len(gens)])
		if err != nil {
			t.Fatal(err)
		}
		s, err := cfg.Generate(int64(i))
		if err != nil {
			t.Fatal(err)
		}
		for n := 1 + rng.Intn(3); n > 0 && len(s.Flows) > 0 && len(s.Links) > 0; n-- {
			corrupt(rng, s)
		}
		want := validateMapOracle(s)
		_, got := s.Resolve()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("case %d (%s): Resolve = %v, map oracle = %v\n%s", i, gens[i%len(gens)], got, want, s.Format())
		}
		if want == nil {
			accepted++
		} else {
			rejected++
		}
	}
	if accepted < 500 || rejected < 500 {
		t.Errorf("corruptions too one-sided: %d accepted, %d rejected", accepted, rejected)
	}
}

// TestResolveHops checks the resolved via paths: each flow's hops are the
// links joining its consecutive via nodes, a re-declared link resolves to
// its last declaration, and a flow without a via path has no hops.
func TestResolveHops(t *testing.T) {
	for _, gen := range []string{"fattree:k=4,flows=6", "nclouds:n=3,through=2,local=1,remark=1", "mesh:nodes=6,flows=4"} {
		cfg, err := topogen.Parse(gen)
		if err != nil {
			t.Fatal(err)
		}
		s, err := cfg.Generate(1)
		if err != nil {
			t.Fatal(err)
		}
		// Declare every link twice: hops must take the second declaration.
		declared := len(s.Links)
		s.Links = append(s.Links, s.Links...)
		r, err := s.Resolve()
		if err != nil {
			t.Fatalf("%s: %v", gen, err)
		}
		for i, f := range s.Flows {
			hops := r.Hops(i)
			if len(f.Via) == 0 {
				if len(hops) != 0 {
					t.Errorf("%s: flow %d has no via path but %d hops", gen, f.Index, len(hops))
				}
				continue
			}
			if len(hops) != len(f.Via)-1 {
				t.Fatalf("%s: flow %d: %d hops for a %d-node path", gen, f.Index, len(hops), len(f.Via))
			}
			for j, l := range hops {
				got := s.Links[l]
				if got.From != f.Via[j] || got.To != f.Via[j+1] {
					t.Errorf("%s: flow %d hop %d resolves to %s->%s, want %s->%s", gen, f.Index, j, got.From, got.To, f.Via[j], f.Via[j+1])
				}
				if int(l) < declared {
					t.Errorf("%s: flow %d hop %d resolves to the first of a re-declared link", gen, f.Index, j)
				}
			}
		}
		for i, l := range s.Links {
			core := true
			for _, n := range s.Nodes {
				if (n.Name == l.From || n.Name == l.To) && n.Role != topospec.RoleCore {
					core = false
				}
			}
			if r.CoreLink(i) != core {
				t.Errorf("%s: link %s->%s CoreLink = %v, want %v", gen, l.From, l.To, r.CoreLink(i), core)
			}
		}
	}
}
