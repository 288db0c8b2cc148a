package exp

import (
	"fmt"
	"io"
	"slices"

	"rtoffload/internal/core"
	"rtoffload/internal/parallel"
	"rtoffload/internal/rtime"
	"rtoffload/internal/sched"
	"rtoffload/internal/server"
)

// LatencyRow profiles one task's job response times under one server
// scenario.
type LatencyRow struct {
	Scenario server.Scenario
	Task     string
	Deadline rtime.Duration
	P50      rtime.Duration
	P95      rtime.Duration
	Worst    rtime.Duration
	Hits     int
	Jobs     int
}

// LatencyStudy runs the case-study configuration under the three
// scenarios with latency collection and reports per-task response-time
// percentiles — the timing headroom behind the "zero misses" headline:
// even in the busy scenario every worst case stays below its deadline,
// because the compensation path bounds it by construction.
func LatencyStudy(cfg CaseStudyConfig) ([]LatencyRow, error) {
	set, err := CaseTasks(cfg)
	if err != nil {
		return nil, err
	}
	dec, err := core.Decide(set, core.Options{Solver: cfg.Solver})
	if err != nil {
		return nil, err
	}
	horizon := rtime.FromSeconds(cfg.HorizonSeconds * 6) // more jobs for stable percentiles
	perScenario, err := parallel.Map(cfg.Parallel, len(caseScenarios), func(i int) ([]LatencyRow, error) {
		scenario := caseScenarios[i]
		srv, err := caseServer(scenario, cfg.Seed, streamLatency)
		if err != nil {
			return nil, err
		}
		res, err := sched.Run(sched.Config{
			Assignments:      dec.Assignments(),
			Server:           srv,
			Horizon:          horizon,
			CollectLatencies: true,
		})
		if err != nil {
			return nil, err
		}
		if res.Misses != 0 {
			return nil, fmt.Errorf("exp: latency study missed %d deadlines", res.Misses)
		}
		var rows []LatencyRow
		for _, t := range set {
			st := res.PerTask[t.ID]
			p50, ok1 := res.LatencyPercentile(t.ID, 50)
			p95, ok2 := res.LatencyPercentile(t.ID, 95)
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("exp: no latencies for task %d", t.ID)
			}
			rows = append(rows, LatencyRow{
				Scenario: scenario,
				Task:     t.Name,
				Deadline: t.Deadline,
				P50:      p50,
				P95:      p95,
				Worst:    st.WorstLatency,
				Hits:     st.Hits,
				Jobs:     st.Finished,
			})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	return slices.Concat(perScenario...), nil
}

// RenderLatency prints the latency profile table.
func RenderLatency(w io.Writer, rows []LatencyRow) error {
	headers := []string{"Scenario", "Task", "P50", "P95", "Worst", "Deadline", "Hits"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Scenario.String(),
			r.Task,
			fmt.Sprintf("%.1fms", r.P50.Millis()),
			fmt.Sprintf("%.1fms", r.P95.Millis()),
			fmt.Sprintf("%.1fms", r.Worst.Millis()),
			fmt.Sprintf("%.0fms", r.Deadline.Millis()),
			fmt.Sprintf("%d/%d", r.Hits, r.Jobs),
		})
	}
	return WriteTable(w, headers, out)
}
