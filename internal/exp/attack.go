// Adversarial detection campaigns in the experiment harness: the same
// memoized-cell machinery as the figures, but the artifact is the paper's
// detection matrix rather than a performance series.
package exp

import (
	"fmt"

	"tnpu/internal/attack"
)

type attackKey struct {
	short string
	class Class
}

// DetectionCampaign runs (once) the fault-injection sweep for one model:
// every attack kind x every victim traffic class the workload exposes x
// every protection scheme, classified against the detection matrix.
func (r *Runner) DetectionCampaign(short string, class Class) (*attack.Report, error) {
	k := attackKey{short, class}
	label := func() string { return fmt.Sprintf("%s/%s attack", short, class) }
	return compute(r, r.attacks, k, "attack", label, func() (*attack.Report, error) {
		prog, err := r.Program(short, class)
		if err != nil {
			return nil, err
		}
		targets := attack.AvailableTargets(prog)
		if len(targets) == 0 {
			return nil, fmt.Errorf("exp: %s exposes no attackable traffic class", short)
		}
		return attack.Campaign{Targets: targets, Workers: r.workers()}.Run(short, prog)
	})
}

// DetectionMatrix sweeps the campaign over every runner model. The
// returned reports are in model order; the error is the first campaign
// that could not run (matrix violations are reported per-Report, not
// here, so a violation still yields the full evidence).
func (r *Runner) DetectionMatrix(class Class) ([]*attack.Report, error) {
	reps := make([]*attack.Report, len(r.Models))
	err := r.forEach(len(r.Models), func(i int) error {
		rep, err := r.DetectionCampaign(r.Models[i], class)
		if err != nil {
			return err
		}
		reps[i] = rep
		return nil
	})
	if err != nil {
		return nil, err
	}
	return reps, nil
}
