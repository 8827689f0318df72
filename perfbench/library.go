package main

import (
	"context"
	"fmt"

	"tcfpram"
)

func equalWords(got, want []int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d words, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("word %d is %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}

// machineConfig is the configuration a job runs on: the variant's default
// shape on the job's backend, lockstep scheduler.
func machineConfig(j *Job) (tcfpram.Config, error) {
	v, err := tcfpram.ParseVariant(j.Variant)
	if err != nil {
		return tcfpram.Config{}, err
	}
	b, err := tcfpram.ParseBackend(j.Backend)
	if err != nil {
		return tcfpram.Config{}, err
	}
	cfg := tcfpram.DefaultConfig(v)
	cfg.Backend = b
	cfg.Sched = tcfpram.SchedLockstep
	return cfg, nil
}

// runLibrary runs a job on the tcfrun/library path: NewMachine →
// LoadSource → SetWords → RunContext → read the results. The answer is read
// but not yet checked.
func runLibrary(j *Job) (*tcfpram.Stats, answer, error) {
	cfg, err := machineConfig(j)
	if err != nil {
		return nil, answer{}, err
	}
	m, err := tcfpram.NewMachine(cfg)
	if err != nil {
		return nil, answer{}, err
	}
	if err := m.LoadSource(j.Name, j.Src); err != nil {
		return nil, answer{}, err
	}
	for _, in := range j.Inputs {
		if err := m.SetWords(in.Addr, in.Words); err != nil {
			return nil, answer{}, err
		}
	}
	st, err := m.RunContext(context.Background())
	if err != nil {
		return nil, answer{}, err
	}
	a := answer{printed: m.PrintedValues()}
	for _, seg := range j.Check {
		a.mem = append(a.mem, m.Words(seg.Addr, len(seg.Words)))
	}
	return st, a, nil
}

// calibrate runs a job once on the library path, checks its answer and
// returns the lane operations it performs.
func calibrate(j *Job) (int64, error) {
	st, a, err := runLibrary(j)
	if err == nil {
		err = a.check(j)
	}
	if err != nil {
		return 0, fmt.Errorf("%s: %w", j.Name, err)
	}
	return st.Ops, nil
}
