package advisor

import "errors"

// Advisor is an immutable session factory: one job plus the recipe for a
// fresh policy instance. Compile one from a declarative spec
// (spec.CompileAdvisor) or build it directly from a job and a policy
// constructor, then mint independent Sessions from it — expensive shared
// planning structures (DP tables, planners) live inside the constructor's
// closure and are shared by every session, exactly as the experiment
// harness shares them across traces.
type Advisor struct {
	job       Job
	name      string
	newPolicy func() (Policy, error)
}

// NewAdvisor builds an advisor for the job. name labels the policy in
// decisions and errors; newPolicy must return a fresh policy instance per
// call (instances may carry per-session state).
func NewAdvisor(job *Job, name string, newPolicy func() (Policy, error)) (*Advisor, error) {
	if job == nil {
		return nil, errors.New("advisor: NewAdvisor needs a job")
	}
	if newPolicy == nil {
		return nil, errors.New("advisor: NewAdvisor needs a policy constructor")
	}
	if err := job.Validate(); err != nil {
		return nil, err
	}
	return &Advisor{job: *job, name: name, newPolicy: newPolicy}, nil
}

// Job returns a copy of the advised job.
func (a *Advisor) Job() Job { return a.job }

// PolicyName returns the policy's display name.
func (a *Advisor) PolicyName() string { return a.name }

// NewSession mints an independent session over a fresh policy instance.
// History seeds pre-start failures, in chronological order.
func (a *Advisor) NewSession(history ...PastFailure) (*Session, error) {
	return a.newSession(history, len(history))
}

// newSession is NewSession with the renewal bookkeeping sized for the
// given number of failures, the history's included.
func (a *Advisor) newSession(history []PastFailure, failures int) (*Session, error) {
	pol, err := a.newPolicy()
	if err != nil {
		return nil, err
	}
	job := a.job
	return newSession(Config{Job: &job, Policy: pol, History: history}, failures)
}
