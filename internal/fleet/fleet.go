// Package fleet models a fleet of timing-unreliable servers for the
// Offloading Decision Manager.
//
// The paper assumes one unreliable component; real edge deployments
// choose among many (an edge box, a cloud GPU, a peer device), each
// with its own response behaviour, reliability, and capacity. This
// package generalizes the task model's discrete offloading levels into
// (server, Ri-budget) pairs: every probed budget of a task is expanded
// into one choice point per fleet server, with the server's response
// model scaling the budget and its reliability profile discounting the
// expected benefit. The expanded points are ordinary task.Level values
// (strictly increasing budgets, ServerID routing), so the MCKP solvers
// and Theorem-3 repair in internal/core operate on them unchanged —
// the fleet layer only constructs the choice set and accounts for
// per-server capacity pools.
//
// Capacity coupling: each server may carry an occupancy capacity (a
// cap on Σ Ri/Ti over the tasks routed to it) and may belong to a
// named group whose capacity couples several servers (one shared
// knapsack dimension — e.g. servers behind one radio link). All pool
// arithmetic is exact (*big.Rat): a capacity verdict never depends on
// floating-point rounding.
//
// A Fleet with exactly one neutral server (unit scale, no extra
// latency, full reliability) expands every task verbatim, so the
// single-server decision path is preserved bit-for-bit; the
// differential tests in internal/core prove this rather than assume
// it.
package fleet

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"sort"

	"rtoffload/internal/rtime"
	"rtoffload/internal/task"
)

// Server describes one fleet member's response model, reliability
// profile, and capacity coupling. The zero value of every field means
// "neutral": unit response scale, no extra latency, full reliability,
// unit coupling weight, unlimited capacity, no group.
type Server struct {
	// ID routes expanded levels through sched.Config.Servers. It must
	// be unique within a fleet and non-empty unless the fleet has a
	// single server (an empty ID then selects the default server).
	ID string `json:"id"`

	// ScaleNum/ScaleDen form the response-model multiplier: a budget
	// probed against the reference server maps to
	// ceil(r · ScaleNum/ScaleDen) + Extra on this one. Both zero means
	// unit scale.
	ScaleNum int64 `json:"scaleNum,omitempty"`
	ScaleDen int64 `json:"scaleDen,omitempty"`

	// Extra is an additive response-time term (network RTT to reach
	// this server).
	Extra rtime.Duration `json:"extra,omitempty"`

	// Reliability in (0,1] discounts the benefit above the local
	// baseline: an unreliable server returns in budget only that
	// fraction of the time, so the expected benefit of a level becomes
	// local + Reliability·(benefit − local). Zero means 1 (fully
	// reliable). The hard guarantee is unaffected — compensation
	// covers the misses — only the objective is discounted.
	Reliability float64 `json:"reliability,omitempty"`

	// CapNum/CapDen cap the server's occupancy Σ Ri/Ti over tasks
	// routed to it. CapDen zero means unlimited.
	CapNum int64 `json:"capNum,omitempty"`
	CapDen int64 `json:"capDen,omitempty"`

	// WeightNum/WeightDen scale this server's occupancy contribution
	// inside its group pool (a server on a half-rate shared link
	// counts double). Both zero means unit weight.
	WeightNum int64 `json:"weightNum,omitempty"`
	WeightDen int64 `json:"weightDen,omitempty"`

	// Group names the coupled-capacity group this server belongs to,
	// if any. The group must be declared on the Fleet.
	Group string `json:"group,omitempty"`
}

// Group couples the capacity of several servers into one shared pool:
// Σ over member servers of weight·occupancy must stay within Cap.
type Group struct {
	ID     string `json:"id"`
	CapNum int64  `json:"capNum"`
	CapDen int64  `json:"capDen"`
}

// Fleet is an ordered set of servers plus the capacity groups coupling
// them. The zero value (no servers) disables fleet expansion entirely;
// core.Decide then runs the paper's single-server path untouched.
type Fleet struct {
	Servers []Server `json:"servers"`
	Groups  []Group  `json:"groups,omitempty"`
}

// Empty reports whether the fleet has no servers (fleet expansion
// disabled).
func (f Fleet) Empty() bool { return len(f.Servers) == 0 }

// scale returns the normalized response multiplier (unit when unset).
func (s Server) scale() (num, den int64) {
	if s.ScaleNum == 0 && s.ScaleDen == 0 {
		return 1, 1
	}
	return s.ScaleNum, s.ScaleDen
}

// reliability returns the normalized reliability (1 when unset).
func (s Server) reliability() float64 {
	if s.Reliability == 0 {
		return 1
	}
	return s.Reliability
}

// Cap returns the server's occupancy capacity as an exact rational, or
// nil when unlimited.
func (s Server) Cap() *big.Rat {
	if s.CapDen == 0 {
		return nil
	}
	return big.NewRat(s.CapNum, s.CapDen)
}

// CouplingWeight returns the server's group-pool weight (1 when
// unset).
func (s Server) CouplingWeight() *big.Rat {
	if s.WeightNum == 0 && s.WeightDen == 0 {
		return big.NewRat(1, 1)
	}
	return big.NewRat(s.WeightNum, s.WeightDen)
}

// Cap returns the group's shared capacity as an exact rational.
func (g Group) Cap() *big.Rat { return big.NewRat(g.CapNum, g.CapDen) }

// Scale maps a response budget probed against the reference server
// onto this server: ceil(r·ScaleNum/ScaleDen) + Extra, computed
// exactly. It returns an error when the result overflows or is not
// positive.
func (s Server) Scale(r rtime.Duration) (rtime.Duration, error) {
	num, den := s.scale()
	if num == den && s.Extra == 0 {
		return r, nil // verbatim: the neutral fast path shares no rounding
	}
	// ceil(r·num/den) with exact big.Int arithmetic; r, num, den are
	// all positive after Validate.
	p := new(big.Int).Mul(big.NewInt(int64(r)), big.NewInt(num))
	q, m := new(big.Int).QuoRem(p, big.NewInt(den), new(big.Int))
	if m.Sign() > 0 {
		q.Add(q, big.NewInt(1))
	}
	q.Add(q, big.NewInt(int64(s.Extra)))
	if !q.IsInt64() {
		return 0, fmt.Errorf("fleet: server %q: scaled budget %v overflows", s.ID, r)
	}
	out := rtime.Duration(q.Int64())
	if out <= 0 {
		return 0, fmt.Errorf("fleet: server %q: scaled budget %v not positive", s.ID, r)
	}
	return out, nil
}

// Benefit maps a level's benefit onto this server's reliability
// profile: local + Reliability·(benefit − local). A fully reliable
// server returns the benefit verbatim (bit-identical, no float
// round-trip).
func (s Server) Benefit(local, benefit float64) float64 {
	rel := s.reliability()
	if rel == 1 {
		return benefit
	}
	return local + rel*(benefit-local)
}

// Validate checks the fleet's structural invariants.
func (f Fleet) Validate() error {
	if f.Empty() {
		return nil
	}
	groups := make(map[string]bool, len(f.Groups))
	for _, g := range f.Groups {
		if g.ID == "" {
			return errors.New("fleet: group with empty ID")
		}
		if groups[g.ID] {
			return fmt.Errorf("fleet: duplicate group %q", g.ID)
		}
		groups[g.ID] = true
		if g.CapNum <= 0 || g.CapDen <= 0 {
			return fmt.Errorf("fleet: group %q: capacity must be a positive rational", g.ID)
		}
	}
	seen := make(map[string]bool, len(f.Servers))
	for i, s := range f.Servers {
		if s.ID == "" && len(f.Servers) > 1 {
			return fmt.Errorf("fleet: server %d: empty ID in a multi-server fleet", i)
		}
		if seen[s.ID] {
			return fmt.Errorf("fleet: duplicate server %q", s.ID)
		}
		seen[s.ID] = true
		num, den := s.scale()
		if num <= 0 || den <= 0 {
			return fmt.Errorf("fleet: server %q: response scale must be a positive rational", s.ID)
		}
		if s.Extra < 0 {
			return fmt.Errorf("fleet: server %q: negative extra latency", s.ID)
		}
		rel := s.reliability()
		if math.IsNaN(rel) || rel <= 0 || rel > 1 {
			return fmt.Errorf("fleet: server %q: reliability %v outside (0,1]", s.ID, s.Reliability)
		}
		if s.CapDen < 0 || (s.CapDen > 0 && s.CapNum <= 0) || (s.CapDen == 0 && s.CapNum != 0) {
			return fmt.Errorf("fleet: server %q: capacity must be a positive rational or unset", s.ID)
		}
		if wn, wd := s.WeightNum, s.WeightDen; (wn != 0 || wd != 0) && (wn <= 0 || wd <= 0) {
			return fmt.Errorf("fleet: server %q: coupling weight must be a positive rational", s.ID)
		}
		if s.Group != "" && !groups[s.Group] {
			return fmt.Errorf("fleet: server %q: unknown group %q", s.ID, s.Group)
		}
	}
	return nil
}

// ServerIndex returns the index of the server with the given ID, or
// -1. Levels left unrouted (empty ServerID) resolve to the sole server
// of a single-server fleet.
func (f Fleet) ServerIndex(id string) int {
	for i, s := range f.Servers {
		if s.ID == id {
			return i
		}
	}
	if id == "" && len(f.Servers) == 1 {
		return 0
	}
	return -1
}

// ExpandTask returns a deep copy of t whose levels span the
// (server, budget) cross product: for every probed level of t and
// every fleet server, one point with the server-scaled budget, the
// reliability-discounted benefit, and the server's ID for routing.
// Points whose scaled budget leaves no deadline slack are dropped —
// they could never be chosen (OffloadWeight rejects them) and keeping
// the set sorted requires comparable budgets. Points are stable-sorted
// by budget, so equal budgets keep (level-major, server-minor)
// generation order; the MCKP item-dominance sweep later discards
// points another server strictly beats.
//
// A task with no levels is returned as a plain clone. A single neutral
// server reproduces the original levels verbatim (plus routing IDs
// when the server is named), which the differential oracle tests rely
// on.
func (f Fleet) ExpandTask(t *task.Task) (*task.Task, error) {
	c := *t
	if len(t.Levels) == 0 {
		c.Levels = nil
		return &c, nil
	}
	points := make([]task.Level, 0, len(t.Levels)*len(f.Servers))
	for _, lv := range t.Levels {
		for _, s := range f.Servers {
			r, err := s.Scale(lv.Response)
			if err != nil {
				return nil, err
			}
			if r >= t.Deadline {
				continue // no slack for the second phase on this server
			}
			p := lv
			p.Response = r
			p.Benefit = s.Benefit(t.LocalBenefit, lv.Benefit)
			p.ServerID = s.ID
			points = append(points, p)
		}
	}
	sort.SliceStable(points, func(i, j int) bool {
		return points[i].Response < points[j].Response
	})
	// Task.Validate requires strictly increasing budgets: among points
	// tied on budget keep only the first (best generation order — the
	// lower original level, which costs no more setup, then the
	// earlier server). Ties with a worse benefit are dominated anyway.
	dedup := points[:0]
	for i, p := range points {
		if i > 0 && p.Response == dedup[len(dedup)-1].Response {
			if p.Benefit > dedup[len(dedup)-1].Benefit {
				dedup[len(dedup)-1] = p
			}
			continue
		}
		dedup = append(dedup, p)
	}
	c.Levels = dedup
	// Benefit monotonicity can break across servers (a slower server's
	// discounted point may sit after a faster one's full-benefit
	// point). The raw per-point benefits are kept: each point's value
	// belongs to the server that earns it, and inventing the envelope
	// would claim one server's benefit for a budget routed to another.
	// Expanded tasks therefore satisfy every Task.Validate rule except
	// benefit monotonicity; they stay internal to the decision layer,
	// and Decision.Assignments prunes each task to its single chosen
	// point before anything reaches the scheduler's validation.
	if len(f.Servers) == 1 {
		num, den := f.Servers[0].scale()
		if num != den || f.Servers[0].Extra != 0 {
			// The probed server bound lives on the reference timeline;
			// rescale it with the budgets so §3 guarantees survive.
			if c.ServerWCRT > 0 {
				r, err := f.Servers[0].Scale(c.ServerWCRT)
				if err != nil {
					return nil, err
				}
				c.ServerWCRT = r
			}
		}
	} else if c.ServerWCRT > 0 {
		// A pessimistic bound probed against one reference server says
		// nothing about the rest of the fleet: drop it (conservative —
		// the analysis budgets full compensation). DESIGN.md §5.9
		// records this approximation boundary.
		c.ServerWCRT = 0
	}
	return &c, nil
}

// ExpandSet expands every task of the set against the fleet. The
// input set is not modified.
func (f Fleet) ExpandSet(set task.Set) (task.Set, error) {
	out := make(task.Set, len(set))
	for i, t := range set {
		e, err := f.ExpandTask(t)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

// Usage is one offloaded choice's exact contribution to its server's
// pools: the occupancy Ri/Ti it consumes.
type Usage struct {
	Server    string
	Occupancy *big.Rat
}

// Load is one capacity pool's account after accumulation: either a
// server pool (Server true, Pool the server ID) or a group pool
// (Server false, Pool the group ID). Capacity is nil for unbounded
// pools. Occupancy sums weighted member contributions for group
// pools and raw Ri/Ti for server pools.
type Load struct {
	Pool      string
	Server    bool
	Tasks     int
	Occupancy *big.Rat
	Capacity  *big.Rat
}

// Over reports whether the pool exceeds its capacity.
//
//rtlint:allow reach -- reference: from-scratch pool loads, the oracle for core's pool ledger and for invariant I6
func (l Load) Over() bool {
	return l.Capacity != nil && l.Occupancy.Cmp(l.Capacity) > 0
}

// Accumulate folds per-choice usages into the fleet's capacity pools:
// one Load per server (fleet order) followed by one per group (fleet
// order). Usages routed to unknown servers are ignored — the caller
// validates routing separately.
//
//rtlint:allow reach -- reference: from-scratch pool loads, the oracle for core's pool ledger and for invariant I6
func (f Fleet) Accumulate(us []Usage) []Load {
	loads := make([]Load, 0, len(f.Servers)+len(f.Groups))
	gidx := make(map[string]int, len(f.Groups))
	for _, s := range f.Servers {
		loads = append(loads, Load{
			Pool: s.ID, Server: true,
			Occupancy: new(big.Rat), Capacity: s.Cap(),
		})
	}
	for _, g := range f.Groups {
		gidx[g.ID] = len(loads)
		loads = append(loads, Load{
			Pool: g.ID, Occupancy: new(big.Rat), Capacity: g.Cap(),
		})
	}
	for _, u := range us {
		si := f.ServerIndex(u.Server)
		if si < 0 {
			continue
		}
		l := &loads[si]
		l.Tasks++
		l.Occupancy.Add(l.Occupancy, u.Occupancy)
		if g := f.Servers[si].Group; g != "" {
			gl := &loads[gidx[g]]
			gl.Tasks++
			gl.Occupancy.Add(gl.Occupancy, new(big.Rat).Mul(f.Servers[si].CouplingWeight(), u.Occupancy))
		}
	}
	return loads
}

// FirstOver returns the index of the first over-capacity pool, or -1.
//
//rtlint:allow reach -- reference: from-scratch pool loads, the oracle for core's pool ledger and for invariant I6
func FirstOver(loads []Load) int {
	for i, l := range loads {
		if l.Over() {
			return i
		}
	}
	return -1
}
