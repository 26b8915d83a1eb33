package nn

import "math"

// Optimizer updates parameters from their accumulated gradients. Step
// consumes (and does not clear) the gradients; callers zero them per
// batch.
type Optimizer interface {
	Name() string
	Step(params []*Param)
}

// rangeOptimizer is an Optimizer whose update is elementwise, so the
// sharded training engine can split it by parameter range across its
// workers. begin runs once per step before any worker starts: it
// advances step counters and allocates per-parameter state, so no
// worker ever writes a map. update then applies the step to elements
// [lo, hi) of one parameter; the engine covers every element of every
// parameter exactly once. Step is begin plus a full-range update of
// each parameter, so both paths run the same arithmetic.
type rangeOptimizer interface {
	Optimizer
	begin(params []*Param)
	update(p *Param, lo, hi int)
}

// SGD is plain stochastic gradient descent with optional momentum.
type SGD struct {
	LR       float64
	Momentum float64
	vel      map[*Param][]float64
}

// NewSGD constructs SGD with the given learning rate and momentum.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, vel: make(map[*Param][]float64)}
}

// Name identifies the optimizer.
func (s *SGD) Name() string { return "sgd" }

// Step applies one SGD update.
func (s *SGD) Step(params []*Param) {
	s.begin(params)
	for _, p := range params {
		s.update(p, 0, len(p.W))
	}
}

// begin allocates the velocity of any parameter that has none yet.
func (s *SGD) begin(params []*Param) {
	if s.Momentum == 0 {
		return
	}
	for _, p := range params {
		if s.vel[p] == nil {
			s.vel[p] = make([]float64, len(p.W))
		}
	}
}

// update applies the step to elements [lo, hi) of p.
func (s *SGD) update(p *Param, lo, hi int) {
	w, g := p.W[lo:hi], p.Grad[lo:hi]
	if s.Momentum == 0 {
		for i := range w {
			w[i] -= s.LR * g[i]
		}
		return
	}
	v := s.vel[p][lo:hi]
	for i := range w {
		v[i] = s.Momentum*v[i] - s.LR*g[i]
		w[i] += v[i]
	}
}

// Adam is the Kingma–Ba optimizer, the one the paper trains with.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	c1, c2                float64 // this step's bias corrections, set by begin
	m, v                  map[*Param][]float64
}

// NewAdam constructs Adam with the standard defaults (lr 0.001,
// β1 0.9, β2 0.999, ε 1e−8) unless overridden; pass lr ≤ 0 for the
// default rate.
func NewAdam(lr float64) *Adam {
	if lr <= 0 {
		lr = 0.001
	}
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Param][]float64), v: make(map[*Param][]float64),
	}
}

// Name identifies the optimizer.
func (a *Adam) Name() string { return "adam" }

// Step applies one Adam update with bias correction.
func (a *Adam) Step(params []*Param) {
	a.begin(params)
	for _, p := range params {
		a.update(p, 0, len(p.W))
	}
}

// begin advances the step count, computes its bias corrections and
// allocates the moments of any parameter that has none yet.
func (a *Adam) begin(params []*Param) {
	a.t++
	a.c1 = 1 - math.Pow(a.Beta1, float64(a.t))
	a.c2 = 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		if a.m[p] == nil {
			a.m[p] = make([]float64, len(p.W))
			a.v[p] = make([]float64, len(p.W))
		}
	}
}

// update applies the step to elements [lo, hi) of p. adamAccel covers
// a vector-sized prefix with the same operations in the same order;
// the loop below does the rest, and all of it when forced scalar.
func (a *Adam) update(p *Param, lo, hi int) {
	w, g := p.W[lo:hi], p.Grad[lo:hi]
	m, v := a.m[p][lo:hi], a.v[p][lo:hi]
	k := [8]float64{a.Beta1, 1 - a.Beta1, a.Beta2, 1 - a.Beta2, a.LR, a.Eps, a.c1, a.c2}
	for i := adamAccel(w, g, m, v, &k); i < len(w); i++ {
		gi := g[i]
		m[i] = a.Beta1*m[i] + (1-a.Beta1)*gi
		v[i] = a.Beta2*v[i] + (1-a.Beta2)*gi*gi
		mHat := m[i] / a.c1
		vHat := v[i] / a.c2
		w[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
	}
}
