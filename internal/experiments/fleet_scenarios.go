package experiments

import (
	"context"
	"fmt"

	"sprinting/internal/engine"
	"sprinting/internal/fleet"
	"sprinting/internal/table"
)

// flashCrowdScenario is the experiment's canonical dynamic trace: steady
// load, a 1.8× flash-crowd step, an exponential recovery — the unsteady
// demand the paper argues sprinting exists for. Durations scale with the
// experiment's input scale (floored so the surge still saturates).
func flashCrowdScenario(scale float64) fleet.Scenario {
	d := func(base float64) float64 {
		s := base * scale
		if s < base/4 {
			s = base / 4
		}
		return s
	}
	return fleet.Scenario{
		Phases: []fleet.Phase{
			{Name: "baseline", DurationS: d(80), StartFactor: 0.7},
			{Name: "surge", DurationS: d(60), StartFactor: 1.2},
			{Name: "recovery", DurationS: d(80), Shape: fleet.ShapeDecay, StartFactor: 1.2, EndFactor: 0.5},
		},
	}
}

// FleetScenarios evaluates the dynamic-fleet extension: a flash crowd
// played against dispatch policy × rack coordination, reported per phase.
// The headline contrast — pinned by the experiment tests — is that
// routing on thermal headroom (sprint-aware) under token-permit
// coordination holds the surge p99 below least-loaded dispatch on the
// same racks: a dispatcher that knows where the remaining sprint budget
// lives rides out the burst the paper's mechanism was built for.
func FleetScenarios(ctx context.Context, opt Options) ([]*table.Table, error) {
	opt = opt.withDefaults()

	policies := []fleet.Policy{fleet.LeastLoaded, fleet.SprintAware}
	coords := []fleet.Coordination{fleet.NoCoordination, fleet.TokenPermit}
	sc := flashCrowdScenario(opt.Scale)

	type cell struct {
		cfg fleet.Config
		sc  fleet.Scenario
	}
	var cells []cell
	for _, c := range coords {
		for _, p := range policies {
			cfg := fleet.DefaultConfig(p)
			cfg.Nodes = 16
			cfg.Seed = opt.Seed
			cfg.ArrivalRatePerS = 0.9 * float64(cfg.Nodes) / cfg.MeanWorkS
			cfg.Coordination = c
			if c != fleet.NoCoordination {
				cfg.RackSize = 8
				// Sprint headroom for half the rack: tight enough that the
				// surge makes admission contentious, loose enough that the
				// thermal budgets — not the permits — stay the
				// differentiating resource sprint-aware routes on.
				cfg.RackPowerBudgetW = fleet.RackBudgetW(8, 4, cfg.Node)
			}
			cells = append(cells, cell{cfg: cfg, sc: sc})
		}
	}
	metrics, err := engine.Map(ctx, cells,
		func(ctx context.Context, c cell) (fleet.Metrics, error) {
			m, _, err := fleet.Run(ctx, fleet.Spec{Config: c.cfg, Scenario: &c.sc})
			return m, err
		}, opt.engineOptions())
	if err != nil {
		return nil, err
	}

	out := []*table.Table{}
	i := 0
	for _, c := range coords {
		t := table.New(fmt.Sprintf("Flash crowd: 16 nodes, coordination %s, %d requests", c, metrics[i].Requests),
			"policy", "phase", "offered", "thr (req/s)", "p50 (s)", "p99 (s)",
			"denied %", "dropped", "redisp", "trips")
		for range policies {
			m := metrics[i]
			i++
			for _, ph := range m.Phases {
				t.AddRow(m.Policy.String(), ph.Name,
					fmt.Sprintf("%d", ph.Offered),
					table.F(ph.ThroughputRPS, 3),
					table.F(ph.P50S, 3), table.F(ph.P99S, 3),
					table.F(100*ph.SprintDenialRate, 3),
					fmt.Sprintf("%d", ph.Dropped),
					fmt.Sprintf("%d", ph.Redispatches),
					fmt.Sprintf("%d", ph.BreakerTrips))
			}
		}
		t.Caption = "the surge phase is where dispatch earns its keep: sprint-aware routes the burst " +
			"toward remaining thermal headroom and holds the surge p99 below least-loaded"
		out = append(out, t)
	}
	return out, nil
}
