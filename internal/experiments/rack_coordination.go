package experiments

import (
	"context"
	"fmt"

	"sprinting/internal/engine"
	"sprinting/internal/fleet"
	"sprinting/internal/table"
)

// RackCoordination evaluates the shared-power extension: coordination
// policies × rack sizes × offered loads for racks of sprint-capable nodes
// drawing from one provisioned branch circuit (cf. Porto et al.'s
// datacenter sprinting — the paper's §3 "budget shifted in time" as a
// shared-resource problem). Each rack is provisioned for one concurrent
// sprinter per sprint-width of nodes — tight enough that coordination
// matters — and backed by the §6 ultracapacitor buffer. Every cell is one
// deterministic fleet simulation fanned out on the engine pool.
func RackCoordination(ctx context.Context, opt Options) ([]*table.Table, error) {
	opt = opt.withDefaults()

	rackSizes := []int{16, 32}
	// Offered load as a fraction of sustained capacity: near-saturated and
	// overloaded — the §3 regime where the circuit budget binds.
	loads := []float64{0.9, 1.2}
	coords := fleet.Coordinations()

	requests := int(3000 * opt.Scale)
	if requests < 300 {
		requests = 300
	}

	var cells []fleet.Config
	for _, rackSize := range rackSizes {
		for _, load := range loads {
			for _, c := range coords {
				cfg := fleet.DefaultConfig(fleet.SprintAware)
				cfg.Nodes = 32
				cfg.Requests = requests
				cfg.Seed = opt.Seed
				cfg.ArrivalRatePerS = load * float64(cfg.Nodes) / cfg.MeanWorkS
				cfg.Coordination = c
				cfg.RackSize = rackSize
				// One concurrent sprinter per sprint-width of nodes: the
				// provisioning at which average sprint demand crosses the
				// circuit near full load.
				sprinters := rackSize / cfg.SprintWidth
				if sprinters < 1 {
					sprinters = 1
				}
				cfg.RackPowerBudgetW = fleet.RackBudgetW(rackSize, sprinters, cfg.Node)
				cells = append(cells, cfg)
			}
		}
	}
	metrics, err := engine.Map(ctx, cells,
		func(ctx context.Context, cfg fleet.Config) (fleet.Metrics, error) {
			m, _, err := fleet.Run(ctx, fleet.Spec{Config: cfg})
			return m, err
		}, opt.engineOptions())
	if err != nil {
		return nil, err
	}

	out := []*table.Table{}
	i := 0
	for _, rackSize := range rackSizes {
		t := table.New(fmt.Sprintf("Rack study: 32 sprint-aware nodes in racks of %d, %d requests", rackSize, requests),
			"load", "coordination", "thr (req/s)", "p50 (s)", "p99 (s)",
			"trips", "throttled (s)", "denied %", "J/req")
		for _, load := range loads {
			for range coords {
				m := metrics[i]
				i++
				t.AddRow(fmt.Sprintf("%.0f%%", load*100), m.Coordination.String(),
					table.F(m.ThroughputRPS, 3),
					table.F(m.P50S, 3), table.F(m.P99S, 3),
					fmt.Sprintf("%d", m.BreakerTrips),
					table.F(m.RackThrottledS, 4),
					table.F(100*m.PermitDenialRate, 3),
					table.F(m.EnergyPerRequestJ, 3))
			}
		}
		t.Caption = "uncoordinated sprints trip the branch breaker and pay for recovery windows in tail latency; " +
			"token permits make trips impossible by construction; probabilistic admission gambles the ultracap buffer"
		out = append(out, t)
	}
	return out, nil
}
