package multi

import "ssbyzclock/internal/sim"

// MeasureConvergence steps the multiplexed engine in lockstep, judging
// every tenant's honest clocks with its own sim.Judge, until every
// tenant has converged or maxBeats. Tenant t's result is frozen the
// beat its hold window completes — later beats (run because slower
// tenants are still converging) cannot unfreeze it, mirroring the
// standalone measurement, which returns at that point.
func MeasureConvergence(m *Engine, k uint64, maxBeats, holdBeats int) []sim.ConvergenceResult {
	T := m.Tenants()
	judges := make([]sim.Judge, T)
	for t := range judges {
		judges[t] = sim.NewJudge(k, holdBeats)
	}
	remaining := T
	for b := 0; b < maxBeats && remaining > 0; b++ {
		m.Step()
		remaining = 0
		violations := 0
		for t := range judges {
			j := &judges[t]
			if !j.Result().Converged {
				j.Observe(sim.ReadClocks(m.Tenant(t)).Synced())
			}
			res := j.Result()
			if !res.Converged {
				remaining++
			}
			violations += res.ClosureViolations
		}
		// Live progress for a scraper watching a long convergence run.
		if m.met != nil {
			m.met.converged.Set(int64(T - remaining))
			m.met.violations.Set(int64(violations))
		}
	}
	res := make([]sim.ConvergenceResult, T)
	for t := range judges {
		res[t] = judges[t].Result()
	}
	return res
}
