package policy

// PlanKey is the input of one DP solve on the warm path: the survival
// grid and the bits of (x, u, c) (see planKey).
type PlanKey = planKey

// ObserveSolves calls f with the input of every DP solve p runs on its
// warm path.
func (p *DPNextFailure) ObserveSolves(f func(PlanKey)) { p.solveHook = f }
