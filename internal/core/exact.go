package core

import (
	"fmt"
	"math"
	"slices"

	"rtoffload/internal/dbf"
	"rtoffload/internal/rtime"
	"rtoffload/internal/task"
)

// demandOf builds the exact demand model of one choice: a
// dbf.Offloaded (split sub-jobs, suspension ≤ Ri) when offloading,
// else a dbf.Sporadic. It is the one demand constructor of the
// package; taskDemands caches its results per task.
func demandOf(c Choice) (dbf.Demand, error) {
	t := c.Task
	if c.Offload {
		return dbf.NewOffloaded(t.SetupAt(c.Level), t.SecondPhaseAt(c.Level),
			t.Deadline, t.Period, t.Levels[c.Level].Response)
	}
	return dbf.NewSporadic(t.LocalWCET, t.Deadline, t.Period)
}

// demandsOf builds the exact demand model of a choice vector for
// VerifyExact. A choice without a valid model keeps a nil entry, and
// the first construction error is returned alongside.
func demandsOf(choices []Choice) ([]dbf.Demand, error) {
	ds := make([]dbf.Demand, len(choices))
	var first error
	for i, c := range choices {
		d, err := demandOf(c)
		if err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		ds[i] = d
	}
	return ds, first
}

// ImproveWithExact upgrades a Theorem-3 decision using the exact
// processor-demand test (QPA over the true split demand bound
// functions) as the feasibility oracle. Theorem 3's linear bound
// (Ci,1+Ci,2)/(Di−Ri) is pessimistic for large budgets Ri; the exact
// test often leaves room for higher offloading levels. The pass
// repeatedly applies the single level upgrade with the largest
// weighted-benefit gain that QPA still admits, until none fits.
//
// Each candidate is tried through an incremental dbf.Analyzer — an
// O(1) demand swap against cached aggregates instead of a full
// rebuild — so the pass is cheap enough for online re-decision. The
// per-(task, level) candidate demands are constructed once up front.
//
// The result may exceed 1 on the Theorem-3 scale (that is the point);
// its ExactVerified flag is set, and the per-claim guarantee is the
// same as the paper's: every deadline is met even if no result ever
// returns. The input decision is not modified. Decide runs the same
// pass when Options.ExactUpgrade is set.
func ImproveWithExact(d *Decision, set task.Set) (*Decision, error) {
	if d == nil {
		return nil, fmt.Errorf("core: nil decision")
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	caches := choiceCaches(d.Choices)
	var sc certifyScratch
	sc.t3.fill(caches, d.Choices)
	out := exactUpgrade(d, caches, freshAnalyzer, nil, &sc)
	out.Theorem3Total = sc.t3.total()
	return out, nil
}

// exactUpgrade runs the exact-upgrade pass on a copy of d: analyzer
// supplies the dbf.Analyzer over the copy's current demands (nil skips
// the upgrade), and improveLoop applies the upgrades under guard with
// sc's candidate buffer, patching sc.t3 — which holds d's Theorem-3
// total — by each upgrade's delta. The caller records the total.
func exactUpgrade(d *Decision, caches []taskCache, analyzer func([]dbf.Demand) *dbf.Analyzer, guard upgradeGuard, sc *certifyScratch) *Decision {
	out := &Decision{
		Choices:       append([]Choice(nil), d.Choices...),
		TotalExpected: d.TotalExpected,
		Solver:        d.Solver,
		Repaired:      d.Repaired,
		ExactVerified: true,
	}
	if az := analyzer(choiceDemands(caches, out.Choices)); az != nil {
		improveLoop(out, az, caches, guard, sc)
	}
	return out
}

// upgradeGuard vetoes exact-upgrade candidates before the feasibility
// probe and is told of every point a choice moves to — tentative batch
// members and their undoing included — so a stateful guard (the
// fleet's poolLedger) stays in sync with the configuration in effect.
// commit must be exactly reversible: moving a choice back restores the
// guard's earlier verdicts.
type upgradeGuard interface {
	allows(i, lv int) bool
	commit(i, lv int)
}

// upgradeCand is one exact-upgrade candidate of a round: moving choice
// i to offloading level lv gains gain in weighted benefit.
type upgradeCand struct {
	gain  float64
	i, lv int
}

// byGain orders upgrade candidates by descending gain, ties by
// ascending task index, then ascending level.
func byGain(a, b upgradeCand) int {
	//rtlint:allow floatexact -- benefit objective is float64 by design; exactness guards time arithmetic only
	if a.gain != b.gain {
		//rtlint:allow floatexact -- benefit objective is float64 by design; exactness guards time arithmetic only
		if a.gain > b.gain {
			return -1
		}
		return 1
	}
	if a.i != b.i {
		return a.i - b.i
	}
	return a.lv - b.lv
}

// upgradeCands refills buf with every candidate upgrade of choices
// that has a positive gain and a demand model, in byGain order. buf
// grows at most once per call, to hold every level of every task.
func upgradeCands(buf []upgradeCand, choices []Choice, caches []taskCache) []upgradeCand {
	n := 0
	for i := range caches {
		n += len(caches[i].levels)
	}
	buf = slices.Grow(buf[:0], n)
	for i, c := range choices {
		buf = taskCands(buf, i, c.Task, c.point(), &caches[i])
	}
	slices.SortFunc(buf, byGain)
	return buf
}

// taskCands appends to buf the candidate upgrades of choice i of task
// t from point from (−1: local execution): every higher level with a
// positive gain and a demand model in c.
func taskCands(buf []upgradeCand, i int, t *task.Task, from int, c *taskCache) []upgradeCand {
	cur := t.EffectiveWeight() * t.LocalBenefit
	if from >= 0 {
		cur = t.EffectiveWeight() * t.Levels[from].Benefit
	}
	for lv := from + 1; lv < len(t.Levels); lv++ {
		//rtlint:allow floatexact -- float64→float64 rounds the benefit product so arm64 cannot fuse it into the add (make fma-gate)
		gain := float64(t.EffectiveWeight()*t.Levels[lv].Benefit) - cur
		//rtlint:allow floatexact -- benefit objective is float64 by design; exactness guards time arithmetic only
		if !(gain > 0) || c.levels[lv] == nil {
			continue
		}
		buf = append(buf, upgradeCand{gain: gain, i: i, lv: lv})
	}
	return buf
}

// batchMember is one tentatively applied upgrade of a batch: choice i
// moved from prev to offloading level lv.
type batchMember struct {
	prev  Choice
	i, lv int
}

// upgradeStats counts an exact-upgrade pass's work: its passes,
// feasibility probes, the probes a witness window settled, those that
// ran a full QPA and those of them QPA rejected, batches cut by a
// non-dominating head, batches whose last configuration QPA rejected,
// and batches of two or more members in which the guard vetoed a
// candidate ranked above a head.
type upgradeStats struct {
	passes, probes, screened, qpa, qpaRejected, cuts, rejects, vetoedRuns int
}

// witnesses are the last windows QPA reported violated, the exact
// upgrade's screen: a configuration whose exact ΣDBF(w) exceeds a
// window w is one Feasible rejects (dbf.Analyzer.DemandAt), so a probe
// that fails at a remembered window needs no QPA. Verdicts hold for
// any windows, so the set is cache state: it may carry windows across
// re-decisions and tasks without changing a decision. A zero slot is
// empty, since a violated window is positive.
type witnesses struct {
	w    [nWitness]rtime.Duration
	next int
}

// nWitness is how many violated windows the screen remembers.
const nWitness = 4

// record remembers window t in place of the oldest, unless it is
// already held; it returns the slot t went into, or −1.
func (ws *witnesses) record(t rtime.Duration) int {
	for _, w := range ws.w {
		if w == t {
			return -1
		}
	}
	k := ws.next
	ws.w[k], ws.next = t, (k+1)%nWitness
	return k
}

// rejects reports whether the configuration in effect on az exceeds
// some remembered window.
func (ws *witnesses) rejects(az *dbf.Analyzer) bool {
	for _, w := range ws.w {
		if w == 0 {
			continue
		}
		if dem, ok := az.DemandAt(w); ok && dem > w {
			return true
		}
	}
	return false
}

// rest is, for each remembered window w of a round, w minus the
// committed configuration's ΣDBF(w), or noScreen where the slot is
// empty or the sum inexact. A swap of one demand from cur to cand
// violates w exactly when cand.DBF(w) − cur.DBF(w) > rest, so a round
// screens each candidate without swapping it in.
type rest [nWitness]rtime.Duration

// noScreen marks a rest slot that screens nothing: no DBF difference
// exceeds it.
const noScreen = rtime.Duration(math.MaxInt64)

// fill sets slot k of r from az's configuration in effect.
func (r *rest) fill(k int, ws *witnesses, az *dbf.Analyzer) {
	r[k] = noScreen
	if w := ws.w[k]; w > 0 {
		if dem, ok := az.DemandAt(w); ok {
			r[k] = w - dem
		}
	}
}

// rejectsSwap reports whether replacing demand cur by cand violates a
// remembered window of r. The committed sum includes cur.DBF(w), so
// cur.DBF(w) ≤ w − r[k] and the difference cannot overflow; a
// saturated cand.DBF(w) is still above every finite rest.
func (r *rest) rejectsSwap(ws *witnesses, cur, cand dbf.Demand) bool {
	for k, w := range ws.w {
		if r[k] == noScreen {
			continue
		}
		if cand.DBF(w)-cur.DBF(w) > r[k] {
			return true
		}
	}
	return false
}

// upgrader is improveLoop's state. sc.upgradeBuf holds the candidates
// over out's current, possibly tentative, choices in byGain order, and
// sc.batch the current batch. Its first applied members are in effect
// on out's Offload and Level fields, az and guard; only confirm
// touches the objective, Expected and sc.t3.
type upgrader struct {
	out     *Decision
	az      *dbf.Analyzer
	caches  []taskCache
	guard   upgradeGuard
	sc      *certifyScratch
	applied int
}

// improveLoop applies the greedy best-gain upgrade until no candidate
// passes the exact test, keeping the Analyzer in sync with out. A
// non-nil guard vetoes candidates before the feasibility probe — the
// fleet path uses it to keep upgrades within the capacity pools.
//
// The greedy's round takes its candidates in byGain order and applies
// the first one the guard allows and QPA admits: the argmax of gain
// over the admissible candidates, ties going to the earliest (task,
// level). Task validation keeps every weighted benefit finite, so no
// gain is NaN and the order is total. Almost every round accepts its
// head — the first guard-allowed candidate — so the loop verifies
// runs of heads in batches instead of one probe per round. From the
// committed, feasible configuration C0 it applies the heads
// tentatively while each member after the first pointwise dominates
// its task's current demand (dbf.Dominates). The configurations
// C1 ≤ … ≤ Cm then grow pointwise, so one QPA on Cm proves every Ck
// and thus every head the per-round greedy would accept. When Cm
// fails, retreat finds the longest feasible prefix and a
// per-candidate round continues from it past its rejected head. The
// horizon keeps the same order: dbf.Dominates also guarantees
// long-run rate and burst at or above, so no Ck has a horizon beyond
// Cm's, and no Ck fails on an overload or horizon overflow that Cm
// passes.
//
// Every probe is first screened against sc.wit, the windows recent
// QPA rejections reported: most rejections recur at one of them, and
// an exact ΣDBF(w) > w is a rejection without the scan, so the
// verdicts are QPA's own.
//
// The objective, choices' Expected and sc.t3 change only when members
// are confirmed, in member order, so the float objective adds in the
// per-round greedy's order. The candidate order follows each applied
// or undone member incrementally. sc's buffers are reused across
// rounds and — when the caller keeps sc — across calls; sc.t3 holds
// out's Theorem-3 total and follows every confirmed upgrade.
func improveLoop(out *Decision, az *dbf.Analyzer, caches []taskCache, guard upgradeGuard, sc *certifyScratch) {
	u := upgrader{out: out, az: az, caches: caches, guard: guard, sc: sc}
	sc.stats.passes++
	sc.upgradeBuf = upgradeCands(sc.upgradeBuf, out.Choices, caches)
	sc.batch = sc.batch[:0]
	for {
		exhausted, cut := u.walk()
		m := len(sc.batch)
		switch {
		case m == 0 && exhausted:
			return
		case m > 0 && u.probe():
			u.confirm()
			if exhausted {
				return
			}
			if cut {
				continue
			}
		case m > 0:
			u.retreat()
		}
		// The head over the committed configuration is known rejected.
		if !u.round() {
			return
		}
	}
}

// walk applies heads from the committed configuration as batch
// members until no guard-allowed candidate is left (exhausted), a head
// after the first does not dominate its task's current demand (cut),
// or push refuses a head (neither).
func (u *upgrader) walk() (exhausted, cut bool) {
	vetoed := false
	for {
		k, skipped := u.head()
		vetoed = vetoed || skipped
		if k < 0 {
			exhausted = true
			break
		}
		c := u.sc.upgradeBuf[k]
		if len(u.sc.batch) > 0 && !dbf.Dominates(u.caches[c.i].levels[c.lv], u.az.At(c.i)) {
			cut = true
			u.sc.stats.cuts++
			break
		}
		if !u.push(c) {
			break
		}
	}
	if vetoed && len(u.sc.batch) >= 2 {
		u.sc.stats.vetoedRuns++
	}
	return exhausted, cut
}

// head returns the index of the first guard-allowed candidate, −1 when
// there is none, and whether the guard vetoed a candidate before it.
func (u *upgrader) head() (k int, vetoed bool) {
	for k, c := range u.sc.upgradeBuf {
		if u.guard == nil || u.guard.allows(c.i, c.lv) {
			return k, vetoed
		}
		vetoed = true
	}
	return -1, vetoed
}

// push applies candidate c as the next batch member. It reports false,
// leaving c out, when the analyzer refuses c's demand, as the
// per-round probe would refuse it.
func (u *upgrader) push(c upgradeCand) bool {
	u.sc.batch = append(u.sc.batch, batchMember{prev: u.out.Choices[c.i], i: c.i, lv: c.lv})
	if !u.redo() {
		u.sc.batch = u.sc.batch[:len(u.sc.batch)-1]
		return false
	}
	return true
}

// redo puts the next batch member into effect; false when the analyzer
// refuses its demand, which leaves everything unchanged.
func (u *upgrader) redo() bool {
	m := u.sc.batch[u.applied]
	if u.az.Swap(m.i, u.caches[m.i].levels[m.lv]) != nil {
		return false
	}
	c := &u.out.Choices[m.i]
	c.Offload, c.Level = true, m.lv
	u.moved(m.i, m.lv)
	u.applied++
	return true
}

// undo takes the last applied batch member out of effect. The swap
// back restores a demand the analyzer held, and the guard's commit is
// exactly reversible, so the state is what it was before the member.
func (u *upgrader) undo() {
	u.applied--
	m := u.sc.batch[u.applied]
	c := &u.out.Choices[m.i]
	_ = u.az.Swap(m.i, u.caches[m.i].demand(m.prev.point())) // the analyzer held this demand before
	c.Offload, c.Level = m.prev.Offload, m.prev.Level
	u.moved(m.i, m.prev.point())
}

// moved tells the guard and the candidate order that choice i is now
// at point at. Choice i's old candidates leave the byGain-ordered
// list and its fresh ones, sorted, merge into the rest from the back;
// the other tasks' candidates depend only on their own points, so the
// list stays exactly what upgradeCands would build.
func (u *upgrader) moved(i, at int) {
	if u.guard != nil {
		u.guard.commit(i, at)
	}
	sc := u.sc
	fresh := taskCands(sc.taskBuf[:0], i, u.out.Choices[i].Task, at, &u.caches[i])
	slices.SortFunc(fresh, byGain)
	sc.taskBuf = fresh
	buf := sc.upgradeBuf
	n := 0
	for _, c := range buf {
		if c.i != i {
			buf[n] = c
			n++
		}
	}
	buf = slices.Grow(buf[:n], len(fresh))[:n+len(fresh)]
	a, b := n-1, len(fresh)-1
	for k := len(buf) - 1; b >= 0; k-- {
		if a >= 0 && byGain(buf[a], fresh[b]) > 0 {
			buf[k], a = buf[a], a-1
		} else {
			buf[k], b = fresh[b], b-1
		}
	}
	sc.upgradeBuf = buf
}

// probe decides the configuration in effect: a remembered witness
// window settles a rejection, and otherwise a full QPA runs, whose
// violated window is remembered.
func (u *upgrader) probe() bool {
	u.sc.stats.probes++
	if u.sc.wit.rejects(u.az) {
		u.sc.stats.screened++
		return false
	}
	u.sc.stats.qpa++
	err := u.az.Feasible()
	if v, ok := err.(*dbf.Violation); ok {
		u.sc.stats.qpaRejected++
		u.sc.wit.record(v.T)
	}
	return err == nil
}

// retreat handles a batch whose last configuration Cm QPA rejected.
// The members' configurations grow pointwise, so the feasible ones
// are a prefix C1 … Ck (C0 is committed), and the longest is unique.
// retreat walks down from Cm−1 to it, one undo per probe: a rejected
// Ck usually still violates Cm's window, so the witness screen
// settles most steps without a QPA. It then confirms the prefix, and
// head k+1 is known rejected.
func (u *upgrader) retreat() {
	u.sc.stats.rejects++
	k := len(u.sc.batch) - 1
	for ; k > 0; k-- {
		u.seek(k)
		if u.probe() {
			break
		}
	}
	u.seek(k)
	u.sc.batch = u.sc.batch[:k]
	u.confirm()
}

// seek puts exactly the first k batch members into effect. Every
// member was applied once already, so redo cannot fail.
func (u *upgrader) seek(k int) {
	for u.applied > k {
		u.undo()
	}
	for u.applied < k {
		u.redo()
	}
}

// confirm commits every batch member, all in effect, in member order:
// the Theorem-3 total, each choice's Expected and the objective
// follow as the per-round greedy would update them.
func (u *upgrader) confirm() {
	for _, m := range u.sc.batch {
		c := &u.out.Choices[m.i]
		u.sc.t3.move(m.i, m.lv)
		old := c.Expected
		//rtlint:allow floatexact -- float64→float64 rounds the benefit product so arm64 cannot fuse it into the add (make fma-gate)
		c.Expected = float64(c.Task.EffectiveWeight() * c.Task.Levels[m.lv].Benefit)
		u.out.TotalExpected += c.Expected - old
	}
	u.sc.batch = u.sc.batch[:0]
	u.applied = 0
}

// round is one per-candidate round of the greedy from the committed
// configuration, whose head is known rejected: it probes the
// guard-allowed candidates after the head in byGain order and applies
// and confirms the first QPA admits. It reports whether one did. Each
// candidate is first screened against the witness windows from the
// committed sums, without swapping it in; a window a QPA rejection
// replaces mid-round gets its committed sum at once.
func (u *upgrader) round() bool {
	feasible := (*dbf.Analyzer).Feasible
	ws := &u.sc.wit
	var r rest
	for k := range r {
		r.fill(k, ws, u.az)
	}
	skipped := false
	for _, c := range u.sc.upgradeBuf {
		if u.guard != nil && !u.guard.allows(c.i, c.lv) {
			continue
		}
		if !skipped {
			skipped = true // the rejected head
			continue
		}
		u.sc.stats.probes++
		cand := u.caches[c.i].levels[c.lv]
		if r.rejectsSwap(ws, u.az.At(c.i), cand) {
			u.sc.stats.screened++
			continue
		}
		u.sc.stats.qpa++
		err := u.az.With(c.i, cand, feasible)
		if v, ok := err.(*dbf.Violation); ok {
			u.sc.stats.qpaRejected++
			if k := ws.record(v.T); k >= 0 {
				r.fill(k, ws, u.az) // With restored the committed configuration
			}
		}
		if err != nil {
			continue
		}
		if !u.push(c) {
			return false // unreachable: QPA just accepted c
		}
		u.confirm()
		return true
	}
	return false
}

// VerifyExact runs the exact processor-demand test on a decision's
// configuration; nil means every deadline is guaranteed.
func VerifyExact(d *Decision) error {
	ds, err := demandsOf(d.Choices)
	if err != nil {
		return err
	}
	az, err := dbf.NewAnalyzer(ds)
	if err != nil {
		return err
	}
	return az.Feasible()
}
