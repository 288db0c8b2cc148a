// Package core implements the paper's primary contribution: the
// computation-offloading mechanism that exploits timing unreliable
// components in a hard real-time system (Figure 1's software
// architecture).
//
// The pipeline is:
//
//  1. The Benefit and Response Time Estimator (estimator.go) probes the
//     unreliable server and discretizes per-task benefit functions
//     Gi(ri).
//  2. The Offloading Decision Manager (this file) reduces the choice of
//     which tasks to offload — and with which estimated worst-case
//     response time Ri — to a multiple-choice knapsack instance whose
//     weights are the Theorem-3 terms (§5.2) and solves it. One certify
//     step then turns the solution into a decision: it verifies the
//     configuration against the exact rational Theorem-3 test
//     (repairing the rare float rounding slip by downgrading choices),
//     repairs the capacity pools of a multi-server fleet (fleet.go),
//     and optionally upgrades levels with the exact QPA test
//     (exact.go). Decide and the online Admission manager differ only
//     in which mckp.Solver they solve on (fresh or persistent) and
//     which analyzer they hand to certify.
//  3. The Local Compensation Manager is realized by the scheduler
//     (package sched): the setup sub-job gets the proportional split
//     deadline Di,1, a timer fires at Ri, and the compensation runs
//     with the job's original absolute deadline.
//
// The package also provides the online Admission manager and the
// benefit-function perturbation used by the paper's estimation-error
// study (§6.2).
package core

import (
	"errors"
	"fmt"
	"math/big"

	"rtoffload/internal/benefit"
	"rtoffload/internal/dbf"
	"rtoffload/internal/fleet"
	"rtoffload/internal/mckp"
	"rtoffload/internal/rtime"
	"rtoffload/internal/sched"
	"rtoffload/internal/task"
)

// Solver selects the MCKP algorithm used by Decide.
type Solver int

const (
	// SolverDP is the pseudo-polynomial dynamic program the paper
	// adopts from Dudzinski & Walukiewicz (optimal up to capacity-grid
	// quantization).
	SolverDP Solver = iota
	// SolverHEU is the HEU-OE greedy heuristic from Khan's thesis.
	SolverHEU
	// SolverBrute exhaustively enumerates assignments (small systems).
	SolverBrute
	// SolverGreedy is a naive profit-greedy baseline for ablations.
	SolverGreedy
	// SolverBnB is exact branch-and-bound with LP pruning — no capacity
	// quantization, so it resolves hairline-fit instances the DP grid
	// rounds away.
	SolverBnB
	// SolverCore is the Dudzinski–Walukiewicz core method (mckp.Solver):
	// exact like SolverBnB, but with LP-dual reduced-cost fixing and a
	// Pareto-dominance sweep over the residual core, built for
	// fleet-sized choice sets and incremental re-solves. Admission
	// keeps one persistent mckp.Solver warm across re-decisions.
	SolverCore
)

// String implements fmt.Stringer.
func (s Solver) String() string {
	switch s {
	case SolverDP:
		return "dp"
	case SolverHEU:
		return "heu-oe"
	case SolverBrute:
		return "brute-force"
	case SolverGreedy:
		return "greedy"
	case SolverBnB:
		return "branch-and-bound"
	case SolverCore:
		return "core"
	case SolverServerFaster:
		return "server-faster"
	default:
		return fmt.Sprintf("Solver(%d)", int(s))
	}
}

// Options configures Decide.
type Options struct {
	Solver Solver
	// ExactUpgrade post-processes every decision with ImproveWithExact:
	// the exact QPA feasibility oracle (via the incremental
	// dbf.Analyzer) upgrades offloading levels beyond what Theorem 3's
	// linear bound admits. Decisions then carry ExactVerified and may
	// exceed 1 on the Theorem-3 scale. Online users (Admission) get the
	// upgrade on every Add/Remove re-decision.
	ExactUpgrade bool
	// Fleet, when non-empty, expands every task's choice set across
	// the fleet's servers: each probed budget becomes one
	// (server, budget) point per server, with server-scaled budgets,
	// reliability-discounted benefits, and per-server capacity pools
	// enforced by an exact post-solve repair (see fleet.go). An empty
	// Fleet runs the paper's single-server path untouched.
	Fleet fleet.Fleet
}

// Choice is the decision for one task.
type Choice struct {
	Task *task.Task
	// Offload and Level mirror sched.Assignment: Level indexes
	// Task.Levels when Offload is true.
	Offload bool
	Level   int
	// Expected is the weighted benefit claimed by the decision:
	// weight·Gi(Ri) for offloading, weight·Gi(0) for local execution.
	Expected float64
}

// Budget returns the chosen estimated worst-case response time Ri
// (0 for local execution).
func (c Choice) Budget() rtime.Duration {
	if !c.Offload {
		return 0
	}
	return c.Task.Levels[c.Level].Response
}

// Decision is a complete offloading configuration.
type Decision struct {
	Choices []Choice
	// TotalExpected is Σ weight·Gi over the chosen points — the MCKP
	// objective (5a).
	TotalExpected float64
	// Theorem3Total is the exact value of the left-hand side of the
	// schedulability test (3); ≤ 1 by construction.
	Theorem3Total *big.Rat
	Solver        Solver
	// Repaired counts choices downgraded to local execution by the
	// exact-feasibility repair pass (normally 0).
	Repaired int
	// ExactVerified marks decisions whose feasibility is certified by
	// the exact processor-demand test (QPA) rather than Theorem 3 —
	// such decisions may legitimately have Theorem3Total > 1. See
	// ImproveWithExact.
	ExactVerified bool
	// ServerLoads is the exact per-pool capacity account of a fleet
	// decision (one entry per fleet server, then per group), certified
	// within capacity by the repair pass. Nil for single-server
	// decisions — its presence marks the decision as fleet-expanded.
	ServerLoads []fleet.Load
}

// Assignments converts the decision into scheduler assignments. Fleet
// decisions carry fleet-expanded tasks whose cross-server point sets
// intentionally violate Task.Validate's benefit monotonicity; each is
// pruned here to its single chosen point (or no points for local
// execution) so the scheduler's validation sees an ordinary task
// routed to the chosen server.
func (d *Decision) Assignments() []sched.Assignment {
	out := make([]sched.Assignment, len(d.Choices))
	for i, c := range d.Choices {
		t, lvl := c.Task, c.Level
		if d.ServerLoads != nil {
			p := *t
			if c.Offload {
				p.Levels = []task.Level{t.Levels[c.Level]}
				lvl = 0
			} else {
				p.Levels = nil
			}
			t = &p
		}
		out[i] = sched.Assignment{Task: t, Offload: c.Offload, Level: lvl}
	}
	return out
}

// OffloadedCount reports how many tasks the decision offloads.
func (d *Decision) OffloadedCount() int {
	n := 0
	for _, c := range d.Choices {
		if c.Offload {
			n++
		}
	}
	return n
}

// ErrInfeasible reports that not even the all-local configuration
// passes the schedulability test.
var ErrInfeasible = errors.New("core: task set infeasible even with all-local execution")

// classMap records which (offload, level) each MCKP item index means.
type classMap struct {
	offload bool
	level   int
}

// taskCache is the per-task decision state that depends only on the
// task itself: its MCKP class, the item→(offload, level) map, and the
// exact demand model and Theorem-3 weight of every choice. Decide
// derives it per call; the online Admission manager caches one per
// admitted task so re-decisions skip the weight arithmetic and demand
// construction entirely.
type taskCache struct {
	class mckp.Class
	cm    []classMap
	// local is the dbf.Sporadic demand of local execution and localW
	// its Theorem-3 weight Ci/Di (nil and the zero Frac only when the
	// task cannot form a valid sporadic model, which Validate
	// excludes).
	local  dbf.Demand
	localW dbf.Frac
	// levels holds the candidate dbf.Offloaded demand per offloading
	// level and levelW its Theorem-3 weight (Ci,1+Ci,2)/(Di−ri,j); nil
	// demands and zero weights mark levels that cannot form a valid
	// split model and are never feasible. Unlike the MCKP items,
	// over-dense levels (w > 1) are present — the exact-upgrade pass
	// may still admit them.
	levels []dbf.Demand
	levelW []dbf.Frac
}

// weight returns the cached Theorem-3 weight of point lv (−1: local
// execution); the zero Frac when the point has no demand model.
func (c *taskCache) weight(lv int) dbf.Frac {
	if lv < 0 {
		return c.localW
	}
	return c.levelW[lv]
}

// demand returns the cached demand of point lv (−1: local execution);
// nil when the point has no demand model.
func (c *taskCache) demand(lv int) dbf.Demand {
	if lv < 0 {
		return c.local
	}
	return c.levels[lv]
}

// taskDemands builds the exact demand models and Theorem-3 weights of
// every choice of one task (the local, localW, levels and levelW
// fields of its taskCache) through demandOf; a choice without a valid
// model keeps nil and zero entries.
func taskDemands(t *task.Task) taskCache {
	c := taskCache{levels: make([]dbf.Demand, len(t.Levels)), levelW: make([]dbf.Frac, len(t.Levels))}
	if d, err := demandOf(Choice{Task: t}); err == nil {
		c.local, c.localW = d, dbf.NewFrac(int64(t.LocalWCET), int64(t.Deadline))
	}
	for j := range t.Levels {
		if d, err := demandOf(Choice{Task: t, Offload: true, Level: j}); err == nil {
			c.levels[j], c.levelW[j] = d, d.(dbf.Offloaded).Theorem1Rate()
		}
	}
	return c
}

// buildTaskCache constructs one task's MCKP class per §5.2 — item 0 is
// local execution (wi,1 = Ci/Di, profit weight·Gi(0)), plus one item
// per offloading level j with wi,j = (Ci,1+Ci,2)/(Di−ri,j) and profit
// weight·Gi(ri,j); levels whose budget leaves no room (ri,j ≥ Di or
// wi,j > 1) are excluded, as they can never satisfy Theorem 3 — along
// with the cached demand models and weights of every choice.
func buildTaskCache(t *task.Task) taskCache {
	c := taskDemands(t)
	c.class.Label = t.Name
	c.class.Items = append(c.class.Items, mckp.Item{Weight: c.localW.Float64(), Profit: t.EffectiveWeight() * t.LocalBenefit})
	c.cm = append(c.cm, classMap{offload: false})
	for j, w := range c.levelW {
		if w.Den == 0 {
			continue // budget ≥ deadline or invalid split: never feasible
		}
		if w.Num > w.Den {
			continue // over-dense for Theorem 3
		}
		c.class.Items = append(c.class.Items, mckp.Item{Weight: w.Float64(), Profit: t.EffectiveWeight() * t.Levels[j].Benefit})
		c.cm = append(c.cm, classMap{offload: true, level: j})
	}
	return c
}

// instanceOf is the MCKP instance of §5.2 over the cached classes.
func instanceOf(caches []taskCache) *mckp.Instance {
	in := &mckp.Instance{Capacity: 1, Classes: make([]mckp.Class, len(caches))}
	for i := range caches {
		in.Classes[i] = caches[i].class
	}
	return in
}

// Decide selects, for every task, local execution or an offloading
// level, maximizing total weighted benefit subject to the paper's
// schedulability test. The returned decision always satisfies the
// exact rational Theorem-3 test (or, with ExactUpgrade, the exact
// processor-demand test) and, with a Fleet, every capacity pool.
func Decide(set task.Set, opts Options) (*Decision, error) {
	fleetOn := !opts.Fleet.Empty()
	if fleetOn {
		if err := opts.Fleet.Validate(); err != nil {
			return nil, err
		}
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	if len(set) == 0 {
		return nil, errors.New("core: empty task set")
	}
	if fleetOn {
		var err error
		if set, err = opts.Fleet.ExpandSet(set); err != nil {
			return nil, err
		}
	}
	caches := make([]taskCache, len(set))
	for i, t := range set {
		caches[i] = buildTaskCache(t)
	}
	mk, err := mckp.NewSolverFrom(instanceOf(caches))
	if err != nil {
		return nil, err
	}
	sol, err := solveOn(mk, opts.Solver)
	if err != nil {
		return nil, err
	}
	return certify(set, caches, sol, opts, freshAnalyzer, nil)
}

// freshAnalyzer builds a new dbf.Analyzer over ds; nil when some
// demand cannot be analyzed, which skips the exact upgrade.
func freshAnalyzer(ds []dbf.Demand) *dbf.Analyzer {
	az, err := dbf.NewAnalyzer(ds)
	if err != nil {
		return nil
	}
	return az
}

// certify is the decision pipeline after the MCKP solve, shared by
// Decide and Admission: assemble the solver's choices, repair them
// until the exact Theorem-3 test passes, then (with a fleet) repair
// the capacity pools. With ExactUpgrade the certified decision is then
// upgraded by the exact QPA test, on the dbf.Analyzer that analyzer
// returns for its demands and under the pool ledger's guard when a
// fleet is set. One Theorem-3 accumulator, sc.t3, is filled from the
// assembled choices and patched by every downgrade, reroute and
// upgrade; the decision's Theorem3Total is its one normalisation. sc
// is reusable scratch (nil allocates one). A fleet decision's
// ServerLoads is the ledger's final account. analyzer is only called
// once every fallible step has passed, so an error leaves whatever
// state it closes over untouched.
func certify(tasks task.Set, caches []taskCache, sol mckp.Solution, opts Options,
	analyzer func([]dbf.Demand) *dbf.Analyzer, sc *certifyScratch) (*Decision, error) {
	if sc == nil {
		sc = new(certifyScratch)
	}
	d := assembleDecision(tasks, caches, sol, opts.Solver)
	sc.t3.fill(caches, d.Choices)
	var ledger *poolLedger
	if opts.Fleet.Empty() {
		if err := repairDecision(d, &sc.t3); err != nil {
			return nil, err
		}
	} else {
		var err error
		if ledger, err = repairFleetDecision(d, opts.Fleet, caches, &sc.t3); err != nil {
			return nil, err
		}
	}
	if opts.ExactUpgrade {
		var guard upgradeGuard
		if ledger != nil {
			guard = ledger
		}
		d = exactUpgrade(d, caches, analyzer, guard, sc)
	}
	d.Theorem3Total = sc.t3.total()
	if ledger != nil {
		d.ServerLoads = ledger.loads()
	}
	return d, nil
}

// certifyScratch is certify's reusable state: the Theorem-3
// accumulator, the exact upgrade's candidate buffers (every task's,
// and one task's fresh candidates), its batch, its witness windows and
// its counters. Admission keeps one across re-decisions so a warm
// pass allocates none of them and its probes are screened against
// the windows earlier re-decisions' QPA runs reported; Decide starts
// from an empty one.
type certifyScratch struct {
	t3         theorem3Sum
	upgradeBuf []upgradeCand
	taskBuf    []upgradeCand
	batch      []batchMember
	wit        witnesses
	stats      upgradeStats
}

// solveOn runs solver s on mk's current instance, mapping the
// solver's infeasibility to ErrInfeasible. It is the one dispatch from
// Solver to an MCKP algorithm: Decide calls it on a fresh mckp.Solver,
// Admission on its persistent one. The returned Choice aliases mk's
// storage for the solvers that run on it.
func solveOn(mk *mckp.Solver, s Solver) (mckp.Solution, error) {
	var sol mckp.Solution
	var err error
	switch s {
	case SolverDP:
		sol, err = mk.SolveDP(0)
	case SolverHEU:
		sol, err = mk.SolveHEU()
	case SolverBrute:
		sol, err = mckp.SolveBruteForce(mk.Instance())
	case SolverGreedy:
		sol, err = mckp.SolveGreedy(mk.Instance())
	case SolverBnB:
		sol, err = mckp.SolveBnB(mk.Instance())
	case SolverCore:
		sol, err = mk.Solve()
	default:
		return sol, fmt.Errorf("core: unknown solver %d", int(s))
	}
	if errors.Is(err, mckp.ErrInfeasible) {
		return sol, ErrInfeasible
	}
	return sol, err
}

// assembleDecision translates a solver solution into a Decision,
// accumulating TotalExpected in set order (float accumulation order is
// part of the decision's bit-identity contract between the from-scratch
// and incremental paths).
func assembleDecision(set task.Set, caches []taskCache, sol mckp.Solution, solver Solver) *Decision {
	d := &Decision{Solver: solver}
	for i, t := range set {
		cm := caches[i].cm[sol.Choice[i]]
		ch := Choice{Task: t, Offload: cm.offload, Level: cm.level}
		if cm.offload {
			ch.Expected = t.EffectiveWeight() * t.Levels[cm.level].Benefit
		} else {
			ch.Expected = t.EffectiveWeight() * t.LocalBenefit
		}
		d.Choices = append(d.Choices, ch)
		d.TotalExpected += ch.Expected
	}
	return d
}

// repairDecision is the exact verification + repair pass: float
// accumulation in the solvers can, in principle, admit a configuration
// a hair over 1. Downgrade the offloaded choice with the smallest
// benefit loss until the exact test passes. t3 holds the Theorem-3
// total of d.Choices and is patched by each downgrade's delta.
func repairDecision(d *Decision, t3 *theorem3Sum) error {
	for !t3.ok() {
		idx := cheapestDowngrade(d.Choices, nil)
		if idx < 0 {
			return ErrInfeasible
		}
		downgrade(d, t3, idx)
	}
	return nil
}

// downgrade switches choice idx to local execution, updating the
// objective, the repair count and the Theorem-3 total t3.
func downgrade(d *Decision, t3 *theorem3Sum, idx int) {
	c := &d.Choices[idx]
	t3.move(idx, -1)
	d.TotalExpected -= c.Expected
	c.Offload = false
	c.Level = 0
	//rtlint:allow floatexact -- float64→float64 rounds the benefit product so arm64 cannot fuse it into the add (make fma-gate)
	c.Expected = float64(c.Task.EffectiveWeight() * c.Task.LocalBenefit)
	d.TotalExpected += c.Expected
	d.Repaired++
}

// point returns the choice's offloading level, −1 for local execution.
func (c Choice) point() int {
	if !c.Offload {
		return -1
	}
	return c.Level
}

// choiceDemands resolves every choice to its cached exact demand; an
// entry is nil where the choice has no valid demand model.
func choiceDemands(caches []taskCache, choices []Choice) []dbf.Demand {
	ds := make([]dbf.Demand, len(choices))
	for i, c := range choices {
		ds[i] = caches[i].demand(c.point())
	}
	return ds
}

// choiceCaches builds the demand models and weights of every choice's
// task, index-aligned with choices.
func choiceCaches(choices []Choice) []taskCache {
	caches := make([]taskCache, len(choices))
	for i, c := range choices {
		caches[i] = taskDemands(c.Task)
	}
	return caches
}

// theorem3Sum is the running Theorem-3 total (3) of one choice
// vector: the chosen point of every task over its cache, filled once
// per decision and moved by every downgrade, reroute and upgrade, the
// number of chosen points without a weight (no valid demand model),
// any of which fails the test, and the other points' weights in a
// dbf.FixedSum. Verdicts read the fixed-point enclosure and fall back
// to an exact dbf.Sum over the tracked points only when 1 lies inside
// it, so each is the exact sum's own; total builds the exact sum once.
type theorem3Sum struct {
	fx      dbf.FixedSum
	caches  []taskCache
	points  []int
	missing int
	exact   dbf.Sum
}

// fill sets s to the total of choices over their caches.
func (s *theorem3Sum) fill(caches []taskCache, choices []Choice) {
	s.caches = caches
	s.points = s.points[:0]
	s.fx.Reset()
	s.missing = 0
	for i, c := range choices {
		s.points = append(s.points, c.point())
		s.add(caches[i].weight(c.point()), false)
	}
}

func (s *theorem3Sum) add(w dbf.Frac, sub bool) {
	switch {
	case w.Den == 0 && sub:
		s.missing--
	case w.Den == 0:
		s.missing++
	case sub:
		s.fx.Sub(w)
	default:
		s.fx.Add(w)
	}
}

// move re-accounts choice i at point to (−1: local execution).
func (s *theorem3Sum) move(i, to int) {
	c := &s.caches[i]
	s.add(c.weight(s.points[i]), true)
	s.add(c.weight(to), false)
	s.points[i] = to
}

// theorem3Bound is the bound 1 of test (3).
var theorem3Bound = dbf.Frac{Num: 1, Den: 1}

// ok reports whether the total passes Theorem 3: every chosen point
// has a weight and their sum is at most 1.
func (s *theorem3Sum) ok() bool {
	if s.missing > 0 {
		return false
	}
	if le, decided := s.fx.AtMostOne(); decided {
		return le
	}
	return s.exactSum(-1, 0).Cmp(theorem3Bound) <= 0
}

// okAfter reports whether the weights of the chosen points, with
// choice i moved to point to, sum to at most 1; both of choice i's
// points must have a weight. s is unchanged.
func (s *theorem3Sum) okAfter(i, to int) bool {
	c := &s.caches[i]
	if le, decided := s.fx.AtMostOneAfter(c.weight(s.points[i]), c.weight(to)); decided {
		return le
	}
	return s.exactSum(i, to).Cmp(theorem3Bound) <= 0
}

// exactSum sums the weights of the chosen points exactly, with choice
// i at point to when i ≥ 0; a point without a weight adds nothing.
func (s *theorem3Sum) exactSum(i, to int) *dbf.Sum {
	s.exact.Reset()
	for k, p := range s.points {
		if k == i {
			p = to
		}
		if w := s.caches[k].weight(p); w.Den != 0 {
			s.exact.Add(w)
		}
	}
	return &s.exact
}

// total returns the exact total, normalised once; 2 when a chosen
// point has no weight.
func (s *theorem3Sum) total() *big.Rat {
	if s.missing > 0 {
		return big.NewRat(2, 1)
	}
	return s.exactSum(-1, 0).Rat()
}

// theorem3Total evaluates the exact Theorem-3 test (3) of a choice
// vector from freshly built task caches; a choice without a valid
// demand model fails it with total 2.
func theorem3Total(choices []Choice) (*big.Rat, bool) {
	var s theorem3Sum
	s.fill(choiceCaches(choices), choices)
	return s.total(), s.ok()
}

// cheapestDowngrade picks the offloaded choice whose switch to local
// costs the least expected benefit, among those i with in(i) when in
// is not nil; −1 when there is none.
func cheapestDowngrade(choices []Choice, in func(i int) bool) int {
	best, bestLoss := -1, 0.0
	for i, c := range choices {
		if !c.Offload || (in != nil && !in(i)) {
			continue
		}
		//rtlint:allow floatexact -- float64→float64 rounds the benefit product so arm64 cannot fuse it into the add (make fma-gate)
		loss := c.Expected - float64(c.Task.EffectiveWeight()*c.Task.LocalBenefit)
		if best == -1 || loss < bestLoss { //rtlint:allow floatexact -- repair ordering over float benefits; the result is re-certified exactly
			best, bestLoss = i, loss
		}
	}
	return best
}

// PerturbSet applies the §6.2 estimation-accuracy ratio x to every
// task's benefit function: each level's response budget moves to
// (1+x)·ri,j while its benefit value is retained. The returned set is
// a deep copy; per-level WCET overrides and payloads are preserved.
func PerturbSet(set task.Set, x float64) (task.Set, error) {
	out := set.Clone()
	for _, t := range out {
		f := benefit.FromTask(t)
		g, err := f.Perturb(x)
		if err != nil {
			return nil, err
		}
		pts := g.OffloadPoints()
		for j := range t.Levels {
			t.Levels[j].Response = pts[j].R
		}
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("core: perturbed task invalid: %w", err)
		}
	}
	return out, nil
}

// RealizedBenefit evaluates what a decision actually earns when the
// true benefit functions are given by trueSet (matching task IDs):
// an offloaded task earns the *true* Gi at its chosen budget — the
// probability-weighted value the system observes — while a local task
// earns Gi(0). This is the scoring rule of the paper's Figure 3.
func RealizedBenefit(d *Decision, trueSet task.Set) (float64, error) {
	total := 0.0
	for _, c := range d.Choices {
		t := trueSet.ByID(c.Task.ID)
		if t == nil {
			return 0, fmt.Errorf("core: task %d missing from true set", c.Task.ID)
		}
		f := benefit.FromTask(t)
		if c.Offload {
			total += t.EffectiveWeight() * f.At(c.Budget())
		} else {
			total += t.EffectiveWeight() * f.Local()
		}
	}
	return total, nil
}
