package exp

// Campaign is the fleet-scale sweep instrument (DESIGN.md §5.8): it
// shards a (task set × server scenario × fault intensity) grid into
// cells, runs every cell as a bounded-memory SplitEDF simulation (job
// log discarded, trace streamed through the one-pass checker instead
// of materialized), and persists one completion record per cell to a
// JSONL checkpoint. Cells derive their RNG streams purely from
// (Seed, cell coordinates) via stats.DeriveSeed, so an interrupted
// campaign resumes from its checkpoint and finishes with aggregate
// tables byte-identical to an uninterrupted run — whichever worker
// count, interruption point, or torn final write got it there.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sync"

	"rtoffload/internal/chaos"
	"rtoffload/internal/parallel"
	"rtoffload/internal/rtime"
	"rtoffload/internal/sched"
	"rtoffload/internal/server"
	"rtoffload/internal/stats"
	"rtoffload/internal/task"
	"rtoffload/internal/trace"
)

// CampaignConfig describes a sharded sweep. The cell grid is
// TaskSets × len(Scenarios) × len(FaultScales); each cell simulates an
// independently drawn Tasks-task system against one server scenario
// wrapped in the heavy chaos preset scaled by one intensity.
type CampaignConfig struct {
	Seed     uint64
	TaskSets int // task-set axis: independent system draws
	Tasks    int // tasks per drawn system (default 32)

	// Scenarios is the server axis (default Busy, NotBusy, Idle).
	// Ignored when FleetScenarios is set.
	Scenarios []server.Scenario
	// FleetScenarios switches the campaign to multi-server fleet
	// cells: the scenario axis becomes these named fleet stress
	// shapes (see FleetScenarioNames), each cell admits its system
	// through the fleet-aware decision manager and routes offloads
	// across per-server fault injectors. Empty = single-server cells.
	FleetScenarios []string
	// FaultScales is the chaos axis: each value scales the heavy
	// preset's fault probabilities (0 = fault-free; default 0, 0.5, 1).
	FaultScales []float64

	Horizon  rtime.Duration // default 2 s
	Parallel int            // worker pool (0 = GOMAXPROCS)

	// Checkpoint is a JSONL file persisting per-cell completion
	// records; "" disables checkpointing. A resumed run skips cells
	// already recorded there.
	Checkpoint string
	// Limit caps the number of cells *computed* by this invocation
	// (0 = no cap). A limited run returns an incomplete result — the
	// interruption hook the kill-and-resume tests and the CI smoke
	// lean on.
	Limit int
}

// CellResult is one cell's completion record — exactly one JSONL line
// in the checkpoint file.
type CellResult struct {
	Cell     int     `json:"cell"`
	TaskSet  int     `json:"taskset"`
	Scenario string  `json:"scenario"`
	Fault    float64 `json:"fault"`
	Jobs     int     `json:"jobs"`
	Finished int     `json:"finished"`
	Misses   int     `json:"misses"`
	Benefit  float64 `json:"benefit"`
	CPUBusy  int64   `json:"cpu_busy_us"`
	Makespan int64   `json:"makespan_us"`
	// Offloaded counts the tasks the fleet decision routed to a
	// server; always 0 (omitted) in single-server cells, whose
	// systems are constructed without the decision manager.
	Offloaded int `json:"offloaded,omitempty"`
}

// CampaignResult reports the completed cells in cell-index order plus
// how this invocation got them (computed here vs resumed from the
// checkpoint).
type CampaignResult struct {
	Config   CampaignConfig
	Cells    []CellResult // completed cells, ascending Cell
	Total    int
	Computed int // cells simulated by this invocation
	Resumed  int // cells loaded from the checkpoint
}

// Complete reports whether every cell of the grid has a record.
func (r *CampaignResult) Complete() bool { return len(r.Cells) == r.Total }

// withDefaults fills the optional axes.
func (c CampaignConfig) withDefaults() CampaignConfig {
	if c.Tasks == 0 {
		c.Tasks = 32
	}
	if c.Scenarios == nil && len(c.FleetScenarios) == 0 {
		c.Scenarios = append([]server.Scenario(nil), caseScenarios...)
	}
	if c.FaultScales == nil {
		c.FaultScales = []float64{0, 0.5, 1}
	}
	if c.Horizon == 0 {
		c.Horizon = rtime.FromMillis(2000)
	}
	return c
}

func (c CampaignConfig) validate() error {
	if c.TaskSets <= 0 || c.Tasks <= 0 {
		return fmt.Errorf("exp: campaign needs TaskSets and Tasks > 0")
	}
	if c.scenAxis() == 0 || len(c.FaultScales) == 0 {
		return fmt.Errorf("exp: campaign needs non-empty scenario and fault axes")
	}
	for _, name := range c.FleetScenarios {
		if _, err := fleetFor(name); err != nil {
			return err
		}
	}
	for _, x := range c.FaultScales {
		if x < 0 {
			return fmt.Errorf("exp: fault scale %g is negative", x)
		}
	}
	if c.Horizon <= 0 {
		return fmt.Errorf("exp: campaign horizon must be positive")
	}
	if c.Limit < 0 {
		return fmt.Errorf("exp: campaign limit must be non-negative")
	}
	return nil
}

// scenAxis is the length of the scenario axis — fleet stress shapes
// when the campaign runs in fleet mode, server scenarios otherwise.
func (c CampaignConfig) scenAxis() int {
	if len(c.FleetScenarios) > 0 {
		return len(c.FleetScenarios)
	}
	return len(c.Scenarios)
}

// scenLabel names scenario-axis index si for tables and records.
func (c CampaignConfig) scenLabel(si int) string {
	if len(c.FleetScenarios) > 0 {
		return c.FleetScenarios[si]
	}
	return c.Scenarios[si].String()
}

// cells is the grid size; cell indices are fault-minor:
// cell = (ts·|scenario axis| + si)·|FaultScales| + fi.
func (c CampaignConfig) cells() int {
	return c.TaskSets * c.scenAxis() * len(c.FaultScales)
}

// coords splits a cell index into its task-set, scenario-axis and
// fault-axis coordinates (the inverse of the mapping above).
func (c CampaignConfig) coords(cell int) (ts, si, fi int) {
	nf, ns := len(c.FaultScales), c.scenAxis()
	return cell / (nf * ns), (cell / nf) % ns, cell % nf
}

// campaignHeader is the checkpoint's first line: the campaign's
// identity. Resuming against a mismatched header is refused — a
// checkpoint records cells of exactly one grid.
type campaignHeader struct {
	Magic     string    `json:"magic"`
	Seed      uint64    `json:"seed"`
	TaskSets  int       `json:"tasksets"`
	Tasks     int       `json:"tasks"`
	Scenarios []string  `json:"scenarios"`
	Faults    []float64 `json:"faults"`
	HorizonUS int64     `json:"horizon_us"`
	// Fleet is the fleet-scenario axis; omitted for single-server
	// campaigns so their headers stay byte-identical to pre-fleet
	// checkpoints.
	Fleet []string `json:"fleet,omitempty"`
}

const campaignMagic = "rtoffload-campaign/1"

func (c CampaignConfig) headerLine() ([]byte, error) {
	names := make([]string, len(c.Scenarios))
	for i, s := range c.Scenarios {
		names[i] = s.String()
	}
	return json.Marshal(campaignHeader{
		Magic:     campaignMagic,
		Seed:      c.Seed,
		TaskSets:  c.TaskSets,
		Tasks:     c.Tasks,
		Scenarios: names,
		Faults:    c.FaultScales,
		HorizonUS: int64(c.Horizon),
		Fleet:     c.FleetScenarios,
	})
}

// loadCampaignCheckpoint reads the completed-cell records of path.
// It returns the cells, plus the byte offset of the end of the last
// intact line — the caller truncates there before appending, which is
// what makes a kill mid-write (torn final line) recoverable. A missing
// file returns offset -1. A complete line that fails to parse, or an
// intact header for a different campaign, is corruption, not a torn
// write, and errors out.
func loadCampaignCheckpoint(path string, header []byte, total int) (map[int]CellResult, int64, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return map[int]CellResult{}, -1, nil
	}
	if err != nil {
		return nil, 0, err
	}
	cells := make(map[int]CellResult)
	i := bytes.IndexByte(data, '\n')
	if i < 0 {
		// Torn header: the file dies before its first newline. Start over.
		return cells, 0, nil
	}
	if !bytes.Equal(data[:i], header) {
		return nil, 0, fmt.Errorf("exp: checkpoint %s belongs to a different campaign", path)
	}
	off := int64(i + 1)
	for {
		rest := data[off:]
		j := bytes.IndexByte(rest, '\n')
		if j < 0 {
			// Torn final line from an interrupted append: drop it.
			return cells, off, nil
		}
		var r CellResult
		if err := json.Unmarshal(rest[:j], &r); err != nil {
			return nil, 0, fmt.Errorf("exp: checkpoint %s: corrupt record at offset %d: %w", path, off, err)
		}
		if r.Cell < 0 || r.Cell >= total {
			return nil, 0, fmt.Errorf("exp: checkpoint %s: cell %d out of range [0,%d)", path, r.Cell, total)
		}
		cells[r.Cell] = r
		off += int64(j + 1)
	}
}

// RunCampaign runs (or resumes) the sweep. Pending cells fan out on
// cfg.Parallel workers; each completion is appended to the checkpoint
// before the cell is reported done, so a kill at any instant loses at
// most in-flight cells — never recorded ones.
func RunCampaign(cfg CampaignConfig) (*CampaignResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	base, err := chaos.Preset("heavy")
	if err != nil {
		return nil, err
	}
	total := cfg.cells()

	done := map[int]CellResult{}
	var ckpt *os.File
	if cfg.Checkpoint != "" {
		header, err := cfg.headerLine()
		if err != nil {
			return nil, err
		}
		var valid int64
		done, valid, err = loadCampaignCheckpoint(cfg.Checkpoint, header, total)
		if err != nil {
			return nil, err
		}
		ckpt, err = os.OpenFile(cfg.Checkpoint, os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return nil, err
		}
		defer ckpt.Close()
		if valid <= 0 {
			valid = 0
			if err := ckpt.Truncate(0); err != nil {
				return nil, err
			}
			n, err := ckpt.Write(append(header, '\n'))
			if err != nil {
				return nil, err
			}
			valid = int64(n)
		} else if err := ckpt.Truncate(valid); err != nil {
			return nil, err
		}
		if _, err := ckpt.Seek(valid, io.SeekStart); err != nil {
			return nil, err
		}
	}
	resumed := len(done)

	pending := make([]int, 0, total-resumed)
	for cell := 0; cell < total; cell++ {
		if _, ok := done[cell]; !ok {
			pending = append(pending, cell)
		}
	}
	if cfg.Limit > 0 && len(pending) > cfg.Limit {
		pending = pending[:cfg.Limit]
	}

	var mu sync.Mutex
	fresh, err := parallel.Map(cfg.Parallel, len(pending), func(i int) (CellResult, error) {
		r, err := cfg.runCell(pending[i], base)
		if err != nil {
			return CellResult{}, err
		}
		if ckpt != nil {
			line, err := json.Marshal(r)
			if err != nil {
				return CellResult{}, err
			}
			mu.Lock()
			_, err = ckpt.Write(append(line, '\n'))
			mu.Unlock()
			if err != nil {
				return CellResult{}, fmt.Errorf("exp: checkpoint append: %w", err)
			}
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range fresh {
		done[r.Cell] = r
	}

	out := &CampaignResult{
		Config:   cfg,
		Total:    total,
		Computed: len(pending),
		Resumed:  resumed,
	}
	for cell := 0; cell < total; cell++ {
		if r, ok := done[cell]; ok {
			out.Cells = append(out.Cells, r)
		}
	}
	return out, nil
}

// runCell simulates one cell in bounded memory: the per-job log is
// discarded and the trace streams through the one-pass checker, so a
// cell's footprint is the task set plus in-flight jobs — independent
// of the horizon. Every RNG stream derives from (Seed, ts, si, fi),
// never from execution order. Only the system differs by mode:
// serverSystem builds single-server cells, fleetSystem fleet cells.
func (c CampaignConfig) runCell(cell int, base chaos.Config) (CellResult, error) {
	ts, si, fi := c.coords(cell)
	key := func(stream uint64) uint64 {
		return stats.DeriveSeed(c.Seed, streamCampaign,
			uint64(ts), uint64(si), uint64(fi), stream)
	}
	fleetMode := len(c.FleetScenarios) > 0
	build := c.serverSystem
	if fleetMode {
		build = c.fleetSystem
	}
	asgs, srv, servers, err := build(si, base.Scale(c.FaultScales[fi]), key)
	if err != nil {
		return CellResult{}, fmt.Errorf("exp: campaign cell %d (%s): %w", cell, c.scenLabel(si), err)
	}
	res, err := sched.Run(sched.Config{
		Assignments:       asgs,
		Server:            srv,
		Servers:           servers,
		Horizon:           c.Horizon,
		Policy:            sched.SplitEDF,
		EventQueue:        sched.AutoQueue,
		DiscardJobResults: true,
		TraceSink:         trace.NewStreamChecker(),
	})
	if err != nil {
		return CellResult{}, fmt.Errorf("exp: campaign cell %d (%s): %w", cell, c.scenLabel(si), err)
	}
	out := CellResult{
		Cell:     cell,
		TaskSet:  ts,
		Scenario: c.scenLabel(si),
		Fault:    c.FaultScales[fi],
		Misses:   res.Misses,
		Benefit:  res.NormalizedBenefit(),
		CPUBusy:  int64(res.CPUBusy),
		Makespan: int64(res.Makespan),
	}
	if fleetMode {
		for _, a := range asgs {
			if a.Offload {
				out.Offloaded++
			}
		}
	}
	for id := 0; id < c.Tasks; id++ {
		if st := res.PerTask[id]; st != nil {
			out.Jobs += st.Released
			out.Finished += st.Finished
		}
	}
	return out, nil
}

// serverSystem builds a single-server cell: the drawn system with
// every offloadable task offloaded as constructed (no decision
// manager), against the scenario server wrapped in the fault
// injector.
func (c CampaignConfig) serverSystem(si int, faults chaos.Config, key func(uint64) uint64) ([]sched.Assignment, server.Server, map[string]server.Server, error) {
	set := campaignSet(stats.NewRNG(key(1)), c.Tasks, [][2]float64{{0.4, 2}})
	asgs := make([]sched.Assignment, len(set))
	for i, tk := range set {
		asgs[i] = sched.Assignment{Task: tk, Offload: len(tk.Levels) > 0}
	}
	srv, err := server.NewScenario(stats.NewRNG(key(2)), c.Scenarios[si])
	if err != nil {
		return nil, nil, nil, err
	}
	inj, err := chaos.New(srv, faults, stats.NewRNG(key(3)))
	if err != nil {
		return nil, nil, nil, err
	}
	return asgs, inj, nil, nil
}

// campaignSet draws a campaign system: light per-task load, every
// third task offloadable on the given ladder of (response budget as a
// share of the period, benefit) levels, the rest local.
func campaignSet(rng *stats.RNG, n int, ladder [][2]float64) task.Set {
	shares := rng.UUniFast(n, 0.6)
	set := make(task.Set, 0, n)
	for i := 0; i < n; i++ {
		period := rtime.FromMillis(rng.UniformInt(20, 400))
		c := rtime.Duration(shares[i] * float64(period))
		if c < 2 {
			c = 2
		}
		tk := &task.Task{ID: i, Period: period, Deadline: period, LocalWCET: c, LocalBenefit: 1}
		if i%3 == 0 {
			tk.Setup = c/4 + 1
			tk.Compensation = c
			tk.PostProcess = c / 6
			for _, lv := range ladder {
				tk.Levels = append(tk.Levels, task.Level{
					Response: rtime.Duration(float64(period) * lv[0]),
					Benefit:  lv[1],
				})
			}
		}
		set = append(set, tk)
	}
	return set
}

// WriteCampaignTable prints the aggregate table: one row per
// (scenario, fault) pair aggregated across the task-set axis, in axis
// order. It requires a complete result, and its bytes depend only on
// the campaign config — not on worker count, interruptions, or
// resumes.
func WriteCampaignTable(w io.Writer, r *CampaignResult) error {
	if !r.Complete() {
		return fmt.Errorf("exp: campaign incomplete: %d/%d cells", len(r.Cells), r.Total)
	}
	cfg := r.Config
	nf := len(cfg.FaultScales)
	fleetMode := len(cfg.FleetScenarios) > 0
	// One accumulator per (scenario, fault) row, summed over the
	// task-set axis in ascending cell order.
	sums := make([]CellResult, cfg.scenAxis()*nf)
	for _, rec := range r.Cells {
		_, si, fi := cfg.coords(rec.Cell)
		s := &sums[si*nf+fi]
		s.Jobs += rec.Jobs
		s.Misses += rec.Misses
		s.Offloaded += rec.Offloaded
		s.Benefit += rec.Benefit
	}
	rows := make([][]string, 0, len(sums))
	for i, s := range sums {
		missRate := 0.0
		if s.Jobs > 0 {
			missRate = float64(s.Misses) / float64(s.Jobs)
		}
		row := []string{
			cfg.scenLabel(i / nf),
			fmt.Sprintf("%.2f", cfg.FaultScales[i%nf]),
			fmt.Sprintf("%d", cfg.TaskSets),
			fmt.Sprintf("%d", s.Jobs),
			fmt.Sprintf("%d", s.Misses),
			fmt.Sprintf("%.4f", missRate),
			fmt.Sprintf("%.4f", s.Benefit/float64(cfg.TaskSets)),
		}
		if fleetMode {
			row = append(row, fmt.Sprintf("%d", s.Offloaded))
		}
		rows = append(rows, row)
	}
	header := []string{"Scenario", "Fault", "Cells", "Jobs", "Misses", "MissRate", "Benefit"}
	if fleetMode {
		header[0] = "Fleet"
		header = append(header, "Offl")
	}
	return WriteTable(w, header, rows)
}
