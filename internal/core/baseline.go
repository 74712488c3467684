package core

import (
	"errors"
	"fmt"
	"slices"
)

// Stepper is anything that turns a measurement snapshot into a scheduling
// decision. *Controller is the DRS implementation; ThresholdController is
// the reactive baseline.
type Stepper interface {
	Step(s Snapshot) (Decision, error)
}

var _ Stepper = (*Controller)(nil)
var _ Stepper = (*ThresholdController)(nil)

// ThresholdController is the utilization-threshold autoscaler baseline —
// the policy family of Storm users' manual tuning and of reactive scalers
// (scale a component when its utilization crosses a bound). It needs no
// queueing model: each round, every operator with utilization above High
// requests one more processor and every operator below Low (keeping at
// least one) offers one up; requests are served from offers and from the
// unused budget, most-loaded first.
//
// The comparison experiment (experiments.RunBaseline) shows why DRS exists:
// the threshold policy equalizes utilization, which is NOT the same as
// minimizing Equation (3) — it takes several reconfigurations (each paying
// the rebalance pause) to settle, and settles off the optimum.
type ThresholdController struct {
	// High and Low are the utilization bounds (0 < Low < High < 1).
	High, Low float64
	// Kmax is the processor budget.
	Kmax int
}

// Validate reports configuration errors.
func (c ThresholdController) Validate() error {
	if !(0 < c.Low && c.Low < c.High && c.High < 1) {
		return fmt.Errorf("core: thresholds must satisfy 0 < Low < High < 1, got %g/%g", c.Low, c.High)
	}
	if c.Kmax < 1 {
		return errors.New("core: threshold controller needs Kmax >= 1")
	}
	return nil
}

// Step applies one round of threshold scaling.
func (c ThresholdController) Step(s Snapshot) (Decision, error) {
	if err := c.Validate(); err != nil {
		return Decision{}, err
	}
	if len(s.Ops) == 0 || len(s.Alloc) != len(s.Ops) {
		return Decision{}, fmt.Errorf("core: snapshot needs rates and a matching allocation")
	}
	kmax := s.Kmax
	if kmax == 0 {
		kmax = c.Kmax
	}
	n := len(s.Ops)
	target := append([]int(nil), s.Alloc...)
	used := 0
	rho := make([]float64, n)
	for i, op := range s.Ops {
		used += target[i]
		if target[i] > 0 && op.Mu > 0 {
			rho[i] = op.Lambda / (float64(target[i]) * op.Mu)
		}
	}
	// Offers: one processor from each clearly-underutilized operator.
	free := kmax - used
	for i := range target {
		if rho[i] < c.Low && target[i] > 1 {
			target[i]--
			free++
		}
	}
	// Requests: one processor to each overloaded operator, most loaded
	// first, while anything remains.
	for free > 0 {
		worst, worstRho := -1, c.High
		for i, op := range s.Ops {
			cur := 0.0
			if target[i] > 0 && op.Mu > 0 {
				cur = op.Lambda / (float64(target[i]) * op.Mu)
			}
			if cur > worstRho && target[i] < kmax {
				worst, worstRho = i, cur
			}
		}
		if worst < 0 {
			break
		}
		target[worst]++
		free--
	}
	if slices.Equal(target, s.Alloc) {
		return Decision{Action: ActionNone, TargetKmax: kmax,
			Reason: "all utilizations within thresholds"}, nil
	}
	return Decision{
		Action:     ActionRebalance,
		Target:     target,
		TargetKmax: kmax,
		Reason:     fmt.Sprintf("threshold policy: utilizations %s", fmtRhos(rho)),
	}, nil
}

func fmtRhos(rho []float64) string {
	out := "["
	for i, r := range rho {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.2f", r)
	}
	return out + "]"
}
