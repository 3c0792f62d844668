package thermal

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sprinting/internal/materials"
)

// singleRC builds ambient —R— node with capacity C.
func singleRC(ambient, r, c float64) (*Network, NodeID) {
	n := NewNetwork(ambient)
	id := n.AddNode("x", c, ambient)
	n.Connect(id, AmbientNode, r)
	return n, id
}

func TestSingleRCStepResponse(t *testing.T) {
	// Analytic: T(t) = Tamb + P·R·(1 − e^(−t/RC)).
	const (
		amb = 25.0
		r   = 35.0
		c   = 0.1
		p   = 1.0
	)
	n, id := singleRC(amb, r, c)
	inject := make([]float64, n.NumNodes())
	inject[id] = p
	dt := 1e-3
	tcur := 0.0
	checkpoints := []float64{0.5, 1.75, 3.5, 10.5}
	ci := 0
	for ci < len(checkpoints) {
		n.Step(dt, inject)
		tcur += dt
		if tcur >= checkpoints[ci]-dt/2 {
			want := amb + p*r*(1-math.Exp(-tcur/(r*c)))
			got := n.TempC(id)
			if math.Abs(got-want) > 0.05 {
				t.Errorf("t=%.2f: T = %.4f, want %.4f", tcur, got, want)
			}
			ci++
		}
	}
}

func TestSteadyStateMatchesAnalytic(t *testing.T) {
	// Chain ambient —R1— a —R2— b, inject P at b:
	// Tb = amb + P(R1+R2), Ta = amb + P·R1.
	n := NewNetwork(20)
	a := n.AddNode("a", 1, 20)
	b := n.AddNode("b", 1, 20)
	n.Connect(a, AmbientNode, 10)
	n.Connect(a, b, 5)
	inject := make([]float64, n.NumNodes())
	inject[b] = 2.0
	temps := n.SteadyStateTempC(inject)
	if math.Abs(temps[a]-40) > 1e-6 {
		t.Errorf("Ta = %v, want 40", temps[a])
	}
	if math.Abs(temps[b]-50) > 1e-6 {
		t.Errorf("Tb = %v, want 50", temps[b])
	}
}

// TestEnergyConservation is the core property test: injected energy equals
// stored enthalpy plus heat delivered to ambient, for random networks and
// random power schedules.
func TestEnergyConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := NewNetwork(25)
		nodes := []NodeID{}
		numNodes := 2 + rng.Intn(4)
		for i := 0; i < numNodes; i++ {
			if rng.Float64() < 0.3 {
				nodes = append(nodes, n.AddPCMNode("pcm", 0.05+rng.Float64()*0.3, materials.StudyPCM, 25))
			} else {
				nodes = append(nodes, n.AddNode("n", 0.05+rng.Float64()*5, 25))
			}
		}
		// Chain topology plus a random extra edge.
		n.Connect(nodes[0], AmbientNode, 1+rng.Float64()*40)
		for i := 1; i < len(nodes); i++ {
			n.Connect(nodes[i-1], nodes[i], 0.5+rng.Float64()*10)
		}
		if len(nodes) > 2 {
			n.Connect(nodes[0], nodes[len(nodes)-1], 5+rng.Float64()*100)
		}
		inject := make([]float64, n.NumNodes())
		for step := 0; step < 200; step++ {
			for _, id := range nodes {
				inject[id] = rng.Float64() * 8
			}
			n.Step(0.01, inject)
		}
		balance := n.InjectedEnergyJ() - n.StoredEnergyJ() - n.AmbientEnergyJ()
		return math.Abs(balance) < 1e-6*math.Max(1, n.InjectedEnergyJ())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPCMPlateau verifies the melt plateau: while 0 < meltFraction < 1 the
// PCM temperature is pinned at the melting point, and melt fraction is
// monotone under heating.
func TestPCMPlateau(t *testing.T) {
	n := NewNetwork(25)
	p := n.AddPCMNode("pcm", 0.15, materials.StudyPCM, 25)
	n.Connect(p, AmbientNode, 35)
	inject := make([]float64, n.NumNodes())
	inject[p] = 16
	prevFrac := 0.0
	sawPlateau := false
	for i := 0; i < 30000; i++ {
		n.Step(1e-4, inject)
		frac := n.MeltFraction(p)
		if frac < prevFrac-1e-12 {
			t.Fatalf("melt fraction regressed under heating: %v -> %v", prevFrac, frac)
		}
		prevFrac = frac
		if frac > 0 && frac < 1 {
			sawPlateau = true
			if got := n.TempC(p); math.Abs(got-materials.StudyPCM.MeltingPointC) > 1e-9 {
				t.Fatalf("temperature off plateau during melt: %v", got)
			}
		}
	}
	if !sawPlateau {
		t.Fatal("PCM never entered the melt plateau")
	}
	if prevFrac < 1 {
		t.Fatalf("PCM did not fully melt: frac=%v", prevFrac)
	}
	if n.TempC(p) <= materials.StudyPCM.MeltingPointC {
		t.Fatalf("temperature did not rise past plateau after full melt: %v", n.TempC(p))
	}
}

func TestPCMRefreeze(t *testing.T) {
	n := NewNetwork(25)
	p := n.AddPCMNode("pcm", 0.05, materials.StudyPCM, 25)
	n.Connect(p, AmbientNode, 10)
	inject := make([]float64, n.NumNodes())
	inject[p] = 20
	for i := 0; i < 20000 && n.MeltFraction(p) < 1; i++ {
		n.Step(1e-4, inject)
	}
	if n.MeltFraction(p) < 1 {
		t.Fatal("setup: PCM did not melt")
	}
	inject[p] = 0
	for i := 0; i < 400000 && n.MeltFraction(p) > 0; i++ {
		n.Step(1e-3, inject)
	}
	if n.MeltFraction(p) > 0 {
		t.Fatalf("PCM did not refreeze: frac=%v", n.MeltFraction(p))
	}
	// After long idle, temperature returns toward ambient.
	for i := 0; i < 100000; i++ {
		n.Step(1e-3, inject)
	}
	if d := n.TempC(p) - 25; math.Abs(d) > 0.5 {
		t.Errorf("PCM rest temperature %v, want ≈25", n.TempC(p))
	}
}

func TestStepSubstepsForStability(t *testing.T) {
	// A huge dt must not blow up thanks to internal sub-stepping.
	n, id := singleRC(25, 1, 0.01) // tau = 10 ms
	inject := make([]float64, n.NumNodes())
	inject[id] = 1
	n.Step(5.0, inject) // 500× tau in one call
	got := n.TempC(id)
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("unstable integration: %v", got)
	}
	if math.Abs(got-26) > 0.05 { // steady state 25 + 1·1
		t.Errorf("T = %v, want ≈26", got)
	}
}

func TestMeltFractionRangeProperty(t *testing.T) {
	f := func(powerRaw float64, steps uint8) bool {
		power := math.Mod(math.Abs(powerRaw), 64)
		n := NewNetwork(25)
		p := n.AddPCMNode("pcm", 0.1, materials.StudyPCM, 25)
		n.Connect(p, AmbientNode, 20)
		inject := make([]float64, n.NumNodes())
		inject[p] = power
		for i := 0; i < int(steps); i++ {
			n.Step(1e-3, inject)
			frac := n.MeltFraction(p)
			if frac < 0 || frac > 1 || math.IsNaN(frac) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidConstruction(t *testing.T) {
	n := NewNetwork(25)
	mustPanic(t, "non-positive capacity", func() { n.AddNode("bad", 0, 25) })
	mustPanic(t, "non-positive PCM mass", func() { n.AddPCMNode("bad", 0, materials.StudyPCM, 25) })
	mustPanic(t, "liquid initial PCM", func() { n.AddPCMNode("bad", 0.1, materials.StudyPCM, 65) })
	id := n.AddNode("ok", 1, 25)
	mustPanic(t, "non-positive resistance", func() { n.Connect(id, AmbientNode, 0) })
	mustPanic(t, "self loop", func() { n.Connect(id, id, 1) })
	mustPanic(t, "bad id", func() { n.Connect(id, NodeID(99), 1) })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}
