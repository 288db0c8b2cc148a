// Command admitd runs the online admission-control service.
//
// Usage:
//
//	admitd [-addr :8080] [-solver core|dp|heu|bnb] [-exact] [-fleet SPEC]   serve HTTP
//	admitd -bench [-tenants N] [-ops N] [-seed N] [-maxlive N]              sustained-load benchmark
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
// In serve mode, tenants stream admit/update/evict requests over the
// JSON API (see internal/admitd.Handler) and every re-decision rides
// the incremental analyzer. In bench mode, the configured number of
// concurrent deterministic churn streams drive the service in-process
// and the run reports admissions/sec, p50/p99 decision latency, and
// allocation rate.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"rtoffload/internal/admitd"
	"rtoffload/internal/core"
	"rtoffload/internal/fleet"
)

func main() {
	if err := Run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "admitd:", err)
		os.Exit(1)
	}
}

// Run executes the command against w, so tests can check the exact
// bytes it prints.
func Run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("admitd", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", ":8080", "listen address (serve mode)")
		solver  = fs.String("solver", "core", "MCKP solver: core (exact), dp, heu, or bnb")
		exact   = fs.Bool("exact", true, "run the exact-upgrade pass on every re-decision")
		bench   = fs.Bool("bench", false, "run the sustained-load benchmark instead of serving")
		tenants = fs.Int("tenants", 8, "concurrent churn streams (bench mode)")
		ops     = fs.Int("ops", 500, "operations per tenant (bench mode)")
		seed    = fs.Uint64("seed", 7, "deterministic churn seed (bench mode)")
		maxlive = fs.Int("maxlive", 0, "admitted-task cap per tenant (0 = default)")
		flSpec  = fs.String("fleet", "",
			`multi-server fleet spec, e.g. "edge:cap=1/2;cloud:scale=3/2,rel=0.9" (empty = single server)`)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := core.Options{ExactUpgrade: *exact}
	if *flSpec != "" {
		fl, err := fleet.ParseSpec(*flSpec)
		if err != nil {
			return err
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
		return fmt.Errorf("unknown solver %q (want dp, heu, bnb, or core)", *solver)
	}

	s := admitd.New(opts)
	if *bench {
		rep, err := admitd.RunLoad(s, admitd.LoadConfig{
			Tenants: *tenants, Ops: *ops, Seed: *seed, MaxLive: *maxlive,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "solver           %s (exact=%v)\n", opts.Solver, opts.ExactUpgrade)
		_, err = io.WriteString(w, rep.String())
		return err
	}

	fmt.Fprintf(os.Stderr, "admitd: serving on %s (solver=%s exact=%v)\n", *addr, opts.Solver, opts.ExactUpgrade)
	return newServer(*addr, s.Handler()).ListenAndServe()
}

// Serve-mode connection timeouts. A client has readHeaderTimeout to
// send its request headers, and a kept-alive connection closes after
// idleTimeout without a request. There is no write timeout: nothing
// bounds a decision's analysis time until the QPA horizon is capped,
// so a write timeout could cut off a slow but valid answer.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newServer returns the serve-mode HTTP server of handler h on addr.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}
