package machine

import "fmt"

// Sched names the step-engine scheduling discipline. Lockstep — every group
// advances through each step's generate→merge→commit→retire pipeline in
// global synchrony, one step at a time — is the only one.
//
// Deprecated: lockstep is the only scheduler; kept until the benchmark harness stops setting it.
type Sched int

// SchedLockstep is the lockstep scheduler, Config.Sched's zero value.
//
// Deprecated: lockstep is the only scheduler; kept until the benchmark harness stops setting it.
const SchedLockstep Sched = 0

func (s Sched) String() string {
	if s == SchedLockstep {
		return "lockstep"
	}
	return fmt.Sprintf("Sched(%d)", int(s))
}
