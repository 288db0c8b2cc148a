package core

import (
	"errors"
	"fmt"
	"slices"

	"rtoffload/internal/dbf"
	"rtoffload/internal/mckp"
	"rtoffload/internal/task"
)

// Sentinel errors wrapped by the admission operations so callers (the
// admitd service in particular) can map rejection causes to transport
// status codes with errors.Is instead of string matching.
var (
	// ErrAlreadyAdmitted: Add was called with the ID of a task that is
	// already part of the admitted set.
	ErrAlreadyAdmitted = errors.New("already admitted")
	// ErrNotAdmitted: Update referenced an ID that is not admitted.
	ErrNotAdmitted = errors.New("not admitted")
)

// Admission is the online face of the Offloading Decision Manager: it
// maintains a current task set and decision, re-deciding when tasks
// arrive, change, or leave, and rejecting any request whose grown or
// shrunk system the decision pipeline cannot certify schedulable.
//
// Every re-decision is incremental: per-task MCKP classes and exact
// demand models are cached at admission time, the MCKP is re-solved on
// one persistent mckp.Solver, and with Options.ExactUpgrade the exact
// QPA oracle runs over one persistent dbf.Analyzer that is kept in
// sync with the current decision by O(1) append/remove/swap deltas
// instead of being rebuilt from scratch. Everything after the solve is
// Decide's own certify step, so the decisions are bit-identical to a
// from-scratch Decide over the same task set — the differential
// contract TestAdmissionMatchesRebuild enforces.
//
// Admitted tasks are private: Add and Update store a cloneTask copy
// (and its fleet expansion), and nothing writes an admitted task
// afterwards — the only writers of a level's Response, PerturbSet and
// the budget estimators, work on clones or on the caller's own set,
// Tasks hands out deep copies, and a Decision's choices, which point
// at the admitted tasks, are read-only to callers. So a caller mutating the task it
// passed in changes no later decision, and Update and Remove build the
// tentative set by copying the slice of pointers, sharing the
// unchanged tasks with the committed set instead of deep-copying them.
//
// Atomicity invariant: Add, Update, and Remove either commit fully —
// the task set, the caches, the analyzer, and the decision all advance
// together — or reject with an error and leave every piece of state
// exactly as it was. A rejected call never leaves a stale decision or
// a half-admitted task behind; after an error, Decision() still
// describes the currently admitted set.
type Admission struct {
	opts  Options
	tasks task.Set
	dec   *Decision

	// origs holds the tasks as admitted when a fleet is configured;
	// tasks then holds their fleet-expanded twins (the decision layer's
	// working form). Nil without a fleet.
	origs task.Set

	// caches holds each task's decision state, index-aligned with
	// tasks.
	caches []taskCache

	// Exact-upgrade state (maintained only when opts.ExactUpgrade):
	// az's slot i always holds the exact demand of dec.Choices[i]. A
	// nil az is rebuilt from the caches on the next re-decision.
	az *dbf.Analyzer
	// scratch is certify's Theorem-3 accumulator and the exact
	// upgrade's candidate buffer, kept across re-decisions so a warm
	// pass allocates neither.
	scratch certifyScratch

	// Persistent MCKP solver every re-decision solves on. Its class i
	// always mirrors the committed caches[i]; redecide advances it by
	// one structural delta before solving and rolls the delta back if
	// the re-decision is rejected, mirroring the analyzer's sync
	// discipline. A nil mk is rebuilt from the tentative classes on
	// the next re-decision.
	mk *mckp.Solver
}

// NewAdmission creates an empty admission manager.
func NewAdmission(opts Options) *Admission {
	return &Admission{opts: opts}
}

// Decision returns the current decision (nil before the first
// successful Add).
func (a *Admission) Decision() *Decision { return a.dec }

// Tasks returns a copy of the currently admitted set — the tasks as
// the caller admitted them, before any fleet expansion.
func (a *Admission) Tasks() task.Set {
	if !a.opts.Fleet.Empty() {
		return a.origs.Clone()
	}
	return a.tasks.Clone()
}

// Len returns the number of admitted tasks.
func (a *Admission) Len() int { return len(a.tasks) }

// cloneTask deep-copies one task so admitted state never aliases
// caller-owned memory.
func cloneTask(t *task.Task) *task.Task {
	c := *t
	c.Levels = append([]task.Level(nil), t.Levels...)
	return &c
}

// expandForFleet maps an admitted task to its decision-layer form: the
// fleet-expanded twin when a fleet is configured, the task itself
// otherwise.
func (a *Admission) expandForFleet(t *task.Task) (*task.Task, error) {
	if a.opts.Fleet.Empty() {
		return t, nil
	}
	if err := a.opts.Fleet.Validate(); err != nil {
		return nil, err
	}
	return a.opts.Fleet.ExpandTask(t)
}

// Add admits a task if the grown system remains schedulable; on
// rejection the previous configuration is kept untouched. The task is
// copied, so later caller mutations do not affect the admitted state.
func (a *Admission) Add(t *task.Task) error {
	if t == nil {
		return fmt.Errorf("core: nil task")
	}
	if err := t.Validate(); err != nil {
		return fmt.Errorf("core: admission of task %d rejected: %w", t.ID, err)
	}
	if a.tasks.ByID(t.ID) != nil {
		return fmt.Errorf("core: task %d %w", t.ID, ErrAlreadyAdmitted)
	}
	orig := cloneTask(t)
	t, err := a.expandForFleet(orig)
	if err != nil {
		return fmt.Errorf("core: admission of task %d rejected: %w", orig.ID, err)
	}
	n := len(a.tasks)
	origs := a.origs
	if !a.opts.Fleet.Empty() {
		origs = append(a.origs[:n:n], orig)
	}
	tasks := append(a.tasks[:n:n], t)
	caches := append(a.caches[:n:n], buildTaskCache(t))
	if err := a.redecide(origs, tasks, caches, structOp{kind: opGrow}); err != nil {
		return fmt.Errorf("core: admission of task %d rejected: %w", t.ID, err)
	}
	return nil
}

// Update atomically replaces the admitted task with t's ID by t and
// re-decides; on rejection (including an unknown ID) the previous
// configuration is kept untouched.
func (a *Admission) Update(t *task.Task) error {
	if t == nil {
		return fmt.Errorf("core: nil task")
	}
	if err := t.Validate(); err != nil {
		return fmt.Errorf("core: update of task %d rejected: %w", t.ID, err)
	}
	idx := a.indexOf(t.ID)
	if idx < 0 {
		return fmt.Errorf("core: task %d %w", t.ID, ErrNotAdmitted)
	}
	orig := cloneTask(t)
	t, err := a.expandForFleet(orig)
	if err != nil {
		return fmt.Errorf("core: update of task %d rejected: %w", orig.ID, err)
	}
	origs := a.origs
	if !a.opts.Fleet.Empty() {
		origs = slices.Clone(a.origs)
		origs[idx] = orig
	}
	tasks := slices.Clone(a.tasks)
	tasks[idx] = t
	caches := append([]taskCache(nil), a.caches...)
	caches[idx] = buildTaskCache(t)
	if err := a.redecide(origs, tasks, caches, structOp{kind: opSame, idx: idx}); err != nil {
		return fmt.Errorf("core: update of task %d rejected: %w", t.ID, err)
	}
	return nil
}

// Remove drops a task and re-decides (more capacity usually means more
// offloading). It reports whether the task was removed: (false, nil)
// for an unknown ID, and (false, err) when the shrunk system's
// re-decision fails — the task then stays admitted and the previous
// decision remains valid (Theorem 3 is only sufficient, so a set that
// was certified through the exact upgrade can lose its Theorem-3
// certificate when a task leaves).
func (a *Admission) Remove(id int) (bool, error) {
	idx := a.indexOf(id)
	if idx < 0 {
		return false, nil
	}
	if len(a.tasks) == 1 {
		a.origs, a.tasks, a.caches, a.dec = nil, nil, nil, nil
		a.az = nil
		if a.mk != nil {
			a.mk.Reset() // keep the arenas warm for the next admission
		}
		return true, nil
	}
	origs := a.origs
	if !a.opts.Fleet.Empty() {
		origs = removeAt(a.origs, idx)
	}
	tasks := removeAt(a.tasks, idx)
	caches := removeAt(a.caches, idx)
	if err := a.redecide(origs, tasks, caches, structOp{kind: opShrink, idx: idx}); err != nil {
		return false, fmt.Errorf("core: re-decision after removing %d failed: %w", id, err)
	}
	return true, nil
}

// indexOf returns the position of the task with the given ID, or −1.
func (a *Admission) indexOf(id int) int {
	for i, t := range a.tasks {
		if t.ID == id {
			return i
		}
	}
	return -1
}

// removeAt returns a copy of xs without element i.
func removeAt[T any](xs []T, i int) []T {
	out := make([]T, 0, len(xs)-1)
	out = append(out, xs[:i]...)
	return append(out, xs[i+1:]...)
}

// structOp describes how the tentative configuration relates to the
// committed one, so the analyzer sync can apply the matching
// structural delta.
type structOp struct {
	kind int
	idx  int // replaced position for opSame, removed position for opShrink
}

const (
	opSame   = iota // same length, task at idx replaced
	opGrow          // one task appended at the end
	opShrink        // task at idx removed, order preserved
)

// redecide re-decides a tentative configuration — the persistent
// solve, then Decide's certify step over the tentative caches with the
// synced analyzer — and installs it on success. All fallible steps
// (solver, repairs) run before any shared state other than the solver
// is touched, and a rejected solve rolls the solver back, so a
// returned error implies a has not been mutated; the analyzer is only
// advanced afterwards, during certify's infallible upgrade phase.
func (a *Admission) redecide(origs, tasks task.Set, caches []taskCache, op structOp) error {
	sol, synced, err := a.solveIncremental(caches, op)
	var dec *Decision
	if err == nil {
		dec, err = certify(tasks, caches, sol, a.opts, func(want []dbf.Demand) *dbf.Analyzer {
			a.az = a.syncedAnalyzer(want, op)
			return a.az
		}, &a.scratch)
	}
	if err != nil {
		if synced {
			a.rollbackSolver(op)
		}
		return err
	}
	a.origs, a.tasks, a.caches, a.dec = origs, tasks, caches, dec
	return nil
}

// solveIncremental syncs the persistent solver to the tentative
// classes and solves on it. mutated reports whether a.mk was advanced
// to the tentative configuration (the caller must roll it back if the
// re-decision is later rejected); it is true even when the solve
// itself fails, and false when the sync never touched the solver. The
// solutions are bit-identical to Decide's fresh solver: that is the
// persistent solver's warm/cold contract, enforced here by
// TestAdmissionMatchesRebuild.
func (a *Admission) solveIncremental(caches []taskCache, op structOp) (sol mckp.Solution, mutated bool, err error) {
	if err := a.syncSolver(caches, op); err != nil {
		return mckp.Solution{}, false, err
	}
	sol, err = solveOn(a.mk, a.opts.Solver)
	return sol, true, err
}

// syncSolver advances the persistent solver from the committed classes
// to the tentative ones by the single structural delta op describes —
// O(1) class work plus an upgrade-pool merge, against the full rebuild
// a fresh solver would pay. A missing or desynchronized solver is
// rebuilt from the tentative classes; a sync error leaves a.mk exactly
// as it was.
func (a *Admission) syncSolver(caches []taskCache, op structOp) error {
	if a.mk == nil || a.mk.Len() != len(a.caches) {
		mk, err := mckp.NewSolverFrom(instanceOf(caches))
		if err != nil {
			return err
		}
		a.mk = mk
		return nil
	}
	switch op.kind {
	case opGrow:
		return a.mk.Append(caches[len(caches)-1].class)
	case opSame:
		return a.mk.Swap(op.idx, caches[op.idx].class)
	case opShrink:
		return a.mk.Remove(op.idx)
	}
	return fmt.Errorf("core: unknown struct op %d", op.kind)
}

// rollbackSolver undoes the structural delta syncSolver applied, using
// the still-committed a.caches as the source of truth. The inverse
// delta is correct even when syncSolver rebuilt the solver from the
// tentative classes: applying it to the tentative configuration yields
// the committed one either way. The inverse operations cannot fail on
// classes that were committed before; if one does, the solver is
// dropped and rebuilt on the next re-decision.
func (a *Admission) rollbackSolver(op structOp) {
	var err error
	switch op.kind {
	case opGrow:
		err = a.mk.Remove(a.mk.Len() - 1)
	case opSame:
		err = a.mk.Swap(op.idx, a.caches[op.idx].class)
	case opShrink:
		err = a.mk.Insert(op.idx, a.caches[op.idx].class)
	default:
		err = fmt.Errorf("core: unknown struct op %d", op.kind)
	}
	if err != nil {
		a.mk = nil
	}
}

// syncedAnalyzer brings the persistent analyzer in line with want (the
// demands of the freshly repaired decision) using O(1) structural and
// swap deltas against its current slots; any inconsistency falls back
// to a fresh build. It returns nil only when want contains a demand the
// caches could not model — then the upgrade is skipped, exactly as the
// from-scratch path skips it when its analyzer construction fails.
func (a *Admission) syncedAnalyzer(want []dbf.Demand, op structOp) *dbf.Analyzer {
	az := a.az
	expectLen := len(want)
	if op.kind == opGrow {
		expectLen--
	} else if op.kind == opShrink {
		expectLen++
	}
	if az != nil && az.Len() != expectLen {
		az = nil
	}
	if az != nil {
		switch op.kind {
		case opGrow:
			if az.Append(want[len(want)-1]) != nil {
				az = nil
			}
		case opShrink:
			if az.Remove(op.idx) != nil {
				az = nil
			}
		}
	}
	if az != nil {
		for i, d := range want {
			if d == az.At(i) {
				continue
			}
			if az.Swap(i, d) != nil {
				az = nil
				break
			}
		}
	}
	if az == nil {
		fresh, err := dbf.NewAnalyzer(want)
		if err != nil {
			return nil
		}
		az = fresh
	}
	return az
}
