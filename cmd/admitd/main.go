// Command admitd runs the online admission-control service.
//
// Usage:
//
//	admitd [-addr :8080] [-solver core|dp|heu|bnb] [-exact] [-fleet SPEC]
//
// The default solver is core, the exact MCKP solver: its optimum is
// never below the DP's, which rounds capacity on a grid, and a warm
// re-solve costs tens of microseconds where the DP's costs
// milliseconds.
//
// With -fleet, every tenant's choice sets span (server, budget) pairs
// of the given fleet (see internal/fleet.ParseSpec for the spec
// grammar) and each decision view reports the routed server per task.
//
// Tenants stream admit/update/evict requests over the JSON API (see
// internal/admitd.Handler) and every re-decision rides the incremental
// analyzer. The service's per-operation cost is recorded in BENCH.json
// (BenchmarkAdmitdService, BenchmarkAdmitdChurn; `make bench`) and its
// end-to-end throughput by the admit-large workload of _perfbench.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"rtoffload/internal/admitd"
	"rtoffload/internal/core"
	"rtoffload/internal/fleet"
)

func main() {
	srv, opts, err := configure(os.Args[1:])
	if err == nil {
		fmt.Fprintf(os.Stderr, "admitd: serving on %s (solver=%s exact=%v)\n", srv.Addr, opts.Solver, opts.ExactUpgrade)
		err = srv.ListenAndServe()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "admitd:", err)
		os.Exit(1)
	}
}

// configure parses args into the HTTP server and the decision options
// its service runs on, without listening.
func configure(args []string) (*http.Server, core.Options, error) {
	fs := flag.NewFlagSet("admitd", flag.ContinueOnError)
	var (
		addr   = fs.String("addr", ":8080", "listen address")
		solver = fs.String("solver", "core", "MCKP solver: core (exact), dp, heu, or bnb")
		exact  = fs.Bool("exact", true, "run the exact-upgrade pass on every re-decision")
		flSpec = fs.String("fleet", "",
			`multi-server fleet spec, e.g. "edge:cap=1/2;cloud:scale=3/2,rel=0.9" (empty = single server)`)
	)
	if err := fs.Parse(args); err != nil {
		return nil, core.Options{}, err
	}

	opts := core.Options{ExactUpgrade: *exact}
	if *flSpec != "" {
		fl, err := fleet.ParseSpec(*flSpec)
		if err != nil {
			return nil, core.Options{}, err
		}
		opts.Fleet = fl
	}
	switch *solver {
	case "dp":
		opts.Solver = core.SolverDP
	case "heu":
		opts.Solver = core.SolverHEU
	case "bnb":
		opts.Solver = core.SolverBnB
	case "core":
		opts.Solver = core.SolverCore
	default:
		return nil, core.Options{}, fmt.Errorf("unknown solver %q (want dp, heu, bnb, or core)", *solver)
	}
	return newServer(*addr, admitd.New(opts).Handler()), opts, nil
}

// Connection timeouts. A client has readHeaderTimeout to
// send its request headers, and a kept-alive connection closes after
// idleTimeout without a request. There is no write timeout: nothing
// bounds a decision's analysis time until the QPA horizon is capped,
// so a write timeout could cut off a slow but valid answer.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newServer returns the HTTP server of handler h on addr.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}
