// Command ximdc is the XIMD sweep-fabric coordinator: it shards jobs
// and sweep cross-products across a fleet of ximdd workers with
// digest-affinity routing, heartbeat-driven worker health, work
// stealing, and deterministic requeue (internal/fabric). It serves
// ximdd's job API through the same handlers (serve.API) — jobs, sweeps,
// runs, regress, traces, metrics, with the same validation and error
// contract — plus GET /v1/fleet.
//
// Usage:
//
//	ximdc -worker URL [-worker URL ...] [flags]
//
//	-addr HOST:PORT    listen address (default 127.0.0.1:8410; port 0
//	                   picks a free port, printed on startup)
//	-worker URL        one worker base URL (repeatable), e.g.
//	                   -worker http://127.0.0.1:8412
//	-heartbeat D       lease-renewal / health-probe interval
//	-job-timeout D     per-job fabric deadline, across requeues
//	-steal-after D     duplicate a job stuck queued this long onto an
//	                   idle worker (negative disables stealing)
//	-max-inflight N    per-worker inflight bound before spilling off the
//	                   affinity choice (0 = the worker's queue capacity)
//	-drain-timeout D   graceful-shutdown drain budget
//	-archive DIR       fleet-wide durable run archive: terminal jobs and
//	                   sweep variants are recorded, GET /v1/runs queries
//	                   history, POST /v1/regress gates fresh fleet runs
//	                   against the archived baselines (empty = disabled)
//	-log-format FMT    log output format: text (the classic human-readable
//	                   lines) or json (one structured object per line,
//	                   with worker/trace_id fields where relevant)
//	-debug-addr ADDR   opt-in net/http/pprof listener (empty = disabled).
//	                   Always a separate listener — profiling endpoints
//	                   never share the API port
//
// On SIGINT/SIGTERM the coordinator stops accepting work (503 +
// Retry-After on submit, /readyz goes non-ready), cancels inflight
// fabric jobs, and exits; a second signal aborts immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ximd/internal/archive"
	"ximd/internal/fabric"
	"ximd/internal/xlog"
)

// workerList collects repeated -worker flags.
type workerList []string

func (w *workerList) String() string { return strings.Join(*w, ",") }
func (w *workerList) Set(v string) error {
	v = strings.TrimRight(v, "/")
	if v == "" {
		return fmt.Errorf("empty worker URL")
	}
	*w = append(*w, v)
	return nil
}

func main() {
	var workers workerList
	addr := flag.String("addr", "127.0.0.1:8410", "listen address (port 0 picks a free port)")
	flag.Var(&workers, "worker", "worker base URL (repeatable)")
	heartbeat := flag.Duration("heartbeat", 500*time.Millisecond, "lease-renewal interval")
	jobTimeout := flag.Duration("job-timeout", 120*time.Second, "per-job fabric deadline, across requeues")
	stealAfter := flag.Duration("steal-after", 2*time.Second, "steal threshold for queued jobs (negative disables)")
	maxInflight := flag.Int("max-inflight", 0, "per-worker inflight bound (0 = worker queue capacity)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain budget")
	archiveDir := flag.String("archive", "", "fleet-wide durable run archive directory (empty = disabled)")
	logFormat := flag.String("log-format", xlog.FormatText, "log output format: text or json")
	debugAddr := flag.String("debug-addr", "", "net/http/pprof listener address (empty = disabled)")
	flag.Parse()
	if flag.NArg() != 0 || len(workers) == 0 {
		fmt.Fprintln(os.Stderr, "usage: ximdc -worker URL [-worker URL ...] [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	logger, err := xlog.New(*logFormat, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ximdc: %v\n", err)
		os.Exit(2)
	}
	fatalf := func(format string, args ...any) {
		logger.Error(fmt.Sprintf(format, args...))
		os.Exit(1)
	}

	var arch *archive.Archive
	if *archiveDir != "" {
		arch, err = archive.Open(*archiveDir)
		if err != nil {
			fatalf("ximdc: %v", err)
		}
		defer arch.Close()
		if n := arch.Skipped(); n > 0 {
			logger.Warn(fmt.Sprintf("ximdc: archive: truncated %d torn record(s) at the log tail", n),
				"torn_records", n)
		}
		logger.Info(fmt.Sprintf("ximdc: archive: %d record(s) in %s", arch.Len(), *archiveDir),
			"records", arch.Len(), "dir", *archiveDir)
	}

	if *debugAddr != "" {
		// pprof rides the default mux (the blank net/http/pprof import)
		// on its own listener, so profiling is never reachable through
		// the API port.
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fatalf("ximdc: debug listener: %v", err)
		}
		logger.Info(fmt.Sprintf("ximdc: pprof debug server on %s", dln.Addr()),
			"debug_addr", dln.Addr().String())
		go func() { _ = http.Serve(dln, nil) }()
	}

	coord, err := fabric.New(fabric.Options{
		Workers:        workers,
		HeartbeatEvery: *heartbeat,
		JobTimeout:     *jobTimeout,
		StealAfter:     *stealAfter,
		MaxInflight:    *maxInflight,
		Archive:        arch,
		Logger:         logger,
	})
	if err != nil {
		fatalf("ximdc: %v", err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("ximdc: %v", err)
	}
	logger.Info(fmt.Sprintf("ximdc: %s coordinating %d worker(s), listening on %s", coord.ID(), len(workers), ln.Addr()),
		"coordinator", coord.ID(), "workers", len(workers), "addr", ln.Addr().String())

	httpSrv := &http.Server{Handler: coord.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatalf("ximdc: serve: %v", err)
	case sig := <-sigc:
		logger.Info(fmt.Sprintf("ximdc: %v: draining (budget %v); signal again to abort", sig, *drainTimeout),
			"signal", sig.String(), "budget", drainTimeout.String())
	}
	go func() {
		<-sigc
		logger.Warn("ximdc: second signal: aborting")
		os.Exit(1)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := coord.Shutdown(ctx); err != nil {
		logger.Warn(fmt.Sprintf("ximdc: drain incomplete: %v", err), "err", err.Error())
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Warn(fmt.Sprintf("ximdc: http shutdown: %v", err), "err", err.Error())
	}
	logger.Info("ximdc: stopped")
}
