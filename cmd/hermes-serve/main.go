// hermes-serve exposes a hermes.Runtime as an HTTP job-submission
// service — the open-system serving scenario the ROADMAP's north star
// names. /metrics reads the scheduler series from the runtime's
// machine ledger at scrape time, so they are exact at any load and the
// work-stealing hot path pays nothing for them.
//
// Endpoints:
//
//	POST /jobs      submit a registered workload; 202 + job id, 429 over max in-flight
//	GET  /jobs/{id} job status: running / done / failed, sojourn, report.
//	                ?wait=<dur> long-polls until completion or the wait
//	                elapses (capped at 30s); completed jobs evicted from
//	                the retention window answer 410 status "pruned"
//	GET  /workloads the catalog POST /jobs accepts: every registered kind
//	                with its description, effective defaults and max n
//	GET  /metrics   Prometheus text: steals, tempo switches, DVFS commits,
//	                power/energy, per-workload submissions and job latency
//	                histogram
//	GET  /healthz   liveness + in-flight counters
//
// Both backends serve concurrent jobs over one shared machine: real
// goroutine workers with -backend native, the deterministic
// discrete-event machine (virtual-time multiplexing) with -backend
// sim.
//
// Quickstart:
//
//	hermes-serve -addr :8080 -backend native -mode unified &
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/jobs -d '{"workload":"fib","n":20}'
//	curl -s localhost:8080/jobs/1
//	curl -s localhost:8080/metrics | grep hermes_
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hermes"
	"hermes/internal/control"
	"hermes/internal/metrics"
	"hermes/internal/sweep"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		backend     = flag.String("backend", "native", "execution backend: native or sim")
		mode        = flag.String("mode", "unified", "tempo mode: baseline, workpath, workload or unified")
		workers     = flag.Int("workers", 0, "worker count (0 = backend default)")
		maxInflight = flag.Int("max-inflight", 1024, "max concurrently in-flight jobs before 429")
		jobTimeout  = flag.Duration("job-timeout", 2*time.Minute, "per-job execution timeout (0 = none)")
		shutGrace   = flag.Duration("shutdown-grace", 30*time.Second, "drain window for in-flight requests on shutdown")
		ctlEnable   = flag.Bool("control", false, "enable the knee-aware admission controller (needs -sweep-model)")
		sweepModel  = flag.String("sweep-model", "", "sweep JSON artifact to load as the capacity model")
		ctlInterval = flag.Duration("control-interval", time.Second, "control loop tick period")
		traceCap    = flag.Int("trace-cap", 4096, "arrival-trace ring size for /capacity replays")
	)
	flag.Parse()

	srv, rt, err := buildServer(serveConfig{
		backend:         *backend,
		mode:            *mode,
		workers:         *workers,
		maxInflight:     *maxInflight,
		jobTimeout:      *jobTimeout,
		control:         *ctlEnable,
		sweepModel:      *sweepModel,
		controlInterval: *ctlInterval,
		traceCap:        *traceCap,
	})
	if err != nil {
		log.Fatalf("hermes-serve: %v", err)
	}
	stop := make(chan struct{})
	if srv.ctl != nil && srv.ctl.Enabled() {
		go srv.ctl.Run(stop, *ctlInterval)
		log.Printf("hermes-serve: control loop running every %v (model %s)", *ctlInterval, *sweepModel)
	} else if srv.ctl != nil {
		log.Printf("hermes-serve: controller disabled: %s", srv.ctl.Status().Reason)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.handler()}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("hermes-serve: %v", err)
	}
	log.Printf("hermes-serve: listening on %s (backend=%s mode=%s workers=%d max-inflight=%d)",
		ln.Addr(), rt.Backend(), rt.Config().Mode, rt.Config().Workers, *maxInflight)

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("hermes-serve: %v — draining", s)
	case err := <-errCh:
		log.Printf("hermes-serve: server error: %v", err)
	}

	// Shutdown order: stop accepting HTTP, drain in-flight requests
	// within -shutdown-grace, let in-flight jobs finish via
	// Runtime.Close.
	shutCtx, cancel := context.WithTimeout(context.Background(), *shutGrace)
	defer cancel()
	close(stop)
	log.Printf("hermes-serve: draining %d in-flight job(s) (grace %v)", len(srv.inflight), *shutGrace)
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("hermes-serve: http shutdown: %v (%d job(s) still in flight after %v grace)",
			err, len(srv.inflight), *shutGrace)
	}
	if err := rt.Close(); err != nil {
		log.Printf("hermes-serve: runtime close: %v", err)
	}
	log.Printf("hermes-serve: bye")
}

// serveConfig is everything buildServer needs to assemble a server.
type serveConfig struct {
	backend, mode string
	workers       int
	maxInflight   int
	jobTimeout    time.Duration

	// control enables the knee-aware admission controller; sweepModel
	// is the sweep artifact it calibrates against. The controller is
	// constructed either way (so /controlz always answers), but without
	// both it reports itself disabled and admits everything.
	control         bool
	sweepModel      string
	controlInterval time.Duration
	// traceCap bounds the arrival-trace ring behind /capacity
	// (<1 = default 4096).
	traceCap int
}

// buildServer assembles the runtime, metrics registry and control
// plane behind a server: the registry reads the runtime's ledger at
// each /metrics scrape, and the controller reads the registry's
// latency histogram back to decide admission.
func buildServer(cfg serveConfig) (*server, *hermes.Runtime, error) {
	be, err := hermes.ParseBackend(cfg.backend)
	if err != nil {
		return nil, nil, err
	}
	m, err := hermes.ParseMode(cfg.mode)
	if err != nil {
		return nil, nil, err
	}
	reg := metrics.New()
	opts := []hermes.Option{
		hermes.WithBackend(be),
		hermes.WithMode(m),
	}
	if cfg.workers > 0 {
		opts = append(opts, hermes.WithWorkers(cfg.workers))
	}
	rt, err := hermes.New(opts...)
	if err != nil {
		return nil, nil, err
	}
	reg.SetLedger(rt.MachineStats)
	srv := newServer(rt, reg, cfg.maxInflight, cfg.jobTimeout)
	srv.trace = newTraceRing(cfg.traceCap, srv.started)

	// The controller always exists so /controlz and hermes_control_*
	// answer; it only acts when -control and a loadable model agree.
	ccfg := control.Config{Mode: m, Source: reg, Log: log.Printf}
	switch {
	case !cfg.control:
		ccfg.DisabledReason = "control loop not enabled (start with -control -sweep-model=...)"
	case cfg.sweepModel == "":
		ccfg.DisabledReason = "-control needs -sweep-model pointing at a sweep JSON artifact"
	default:
		model, err := sweep.LoadModel(cfg.sweepModel)
		if err != nil {
			ccfg.DisabledReason = fmt.Sprintf("capacity model unusable: %v", err)
		} else {
			ccfg.Model = model
			if be == hermes.Native {
				// Live tempo-mode switching is a Native capability; on
				// Sim the controller keeps admission control only.
				ccfg.Switcher = rt
			}
		}
	}
	srv.ctl = control.New(ccfg)
	reg.AddCollector(srv.ctl.WritePrometheus)
	return srv, rt, nil
}
