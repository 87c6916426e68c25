// Package daemon is the runner the platform's serving binaries
// (css-controller, css-gateway) share: the flags every daemon takes,
// and the lifecycle around the role-specific wiring — logger, durable
// span export, admission gate, pprof, listen, and the SIGTERM drain.
// Each main contributes only its own flags, its handler and its drain
// steps.
package daemon

import (
	"context"
	"flag"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/overload"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Runner carries the shared flag values and the pieces built from them.
type Runner struct {
	proc         string // span/process label: "controller", "gateway"
	pprof        bool
	logJSON      bool
	maxInflight  int
	actorRPS     float64
	drainTimeout time.Duration
	spanFile     string
	// SpanSample is the one sampling knob: the tracer's head-sampling
	// rate. The tracer's keep rule alone decides which spans reach its
	// ring (/debug/spans) and the -span-file export.
	SpanSample float64
	// AuthKeyFile names the identity authority key; empty leaves
	// bearer-token authentication off.
	AuthKeyFile string

	exporter *telemetry.Exporter
	gate     *overload.Gate
}

// Flags registers the shared flags on the default flag set; call it
// before flag.Parse. authKeyUsage words -auth-key-file for the role.
func Flags(proc, authKeyUsage string) *Runner {
	r := &Runner{proc: proc}
	flag.BoolVar(&r.pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/")
	flag.BoolVar(&r.logJSON, "log-json", false, "structured JSON logs on stderr")
	flag.IntVar(&r.maxInflight, "max-inflight", overload.DefaultMaxInFlight, "global concurrent-request budget (negative: unbounded)")
	flag.Float64Var(&r.actorRPS, "actor-rps", overload.DefaultActorRPS, "per-actor admission rate, requests/second (negative: unlimited)")
	flag.DurationVar(&r.drainTimeout, "drain-timeout", 10*time.Second, "graceful-shutdown budget on SIGTERM")
	flag.StringVar(&r.spanFile, "span-file", "", "durable span export file (JSONL ring; empty: disabled)")
	flag.Float64Var(&r.SpanSample, "span-sample", telemetry.DefaultSampleRate, "head-sampling rate for span recording and export (0..1)")
	flag.StringVar(&r.AuthKeyFile, "auth-key-file", "", authKeyUsage)
	return r
}

// Start installs the process logger; call it right after flag.Parse.
func (r *Runner) Start() {
	telemetry.SetLogger(telemetry.NewLogger(r.logJSON, slog.LevelInfo))
}

// ExportSpans attaches the durable span exporter to the daemon's tracer
// when -span-file is set. It writes every span the tracer keeps, and it
// is flushed and closed as the last drain step so a post-mortem always
// has the spans of the flows that were in flight.
func (r *Runner) ExportSpans(tracer *telemetry.Tracer) {
	if r.spanFile == "" {
		return
	}
	exp, err := telemetry.NewExporter(telemetry.ExporterConfig{Path: r.spanFile}, r.proc)
	if err != nil {
		log.Fatalf("span exporter: %v", err)
	}
	r.exporter = exp
	tracer.SetExporter(exp)
	telemetry.Logger().Info("span export enabled", "file", r.spanFile, "sample", r.SpanSample)
}

// Gate returns the daemon's admission gate, sized by -max-inflight and
// -actor-rps and reporting into the default registry.
func (r *Runner) Gate() *overload.Gate {
	if r.gate == nil {
		r.gate = overload.NewGate(overload.Config{
			MaxInFlight: r.maxInflight,
			ActorRPS:    r.actorRPS,
			Metrics:     telemetry.Default(),
		})
	}
	return r.gate
}

// Serve listens on addr until SIGTERM/SIGINT, then drains: the gate
// refuses new admissions first (shed answers carry Retry-After, so
// clients back off onto a healthy node), the HTTP server finishes its
// in-flight requests, the daemon's own steps run in order, and the span
// export is flushed — all under the remaining -drain-timeout budget.
// Accepted work is never abandoned. Serve exits the process non-zero
// when the listener fails or a drain step does.
func (r *Runner) Serve(addr, title string, h http.Handler, slo *telemetry.SLO, steps ...overload.Step) {
	if r.pprof {
		// The service goes behind a mux that adds /debug/pprof/;
		// without -pprof it is served as it is, with no mux in front.
		mux := http.NewServeMux()
		mux.Handle("/", h)
		telemetry.RegisterPprof(mux)
		telemetry.Logger().Info("pprof profiling enabled", "path", "/debug/pprof/")
		h = mux
	}
	telemetry.Logger().Info(title+" listening", "addr", addr,
		"metrics", "/metrics", "healthz", "/healthz",
		"max_inflight", r.maxInflight, "actor_rps", r.actorRPS,
		"drain_timeout", r.drainTimeout.String())

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := transport.NewHTTPServer(h)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go slo.Run(ctx)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	select {
	case err := <-serveErr:
		log.Fatal(err)
	case <-ctx.Done():
	}

	telemetry.Logger().Info("shutdown signal received, draining", "timeout", r.drainTimeout.String())
	drainCtx, cancel := context.WithTimeout(context.Background(), r.drainTimeout)
	defer cancel()
	steps = append([]overload.Step{{Name: "http-shutdown", Run: httpSrv.Shutdown}}, steps...)
	if r.exporter != nil {
		steps = append(steps, overload.Step{Name: "span-flush", Run: func(context.Context) error {
			return r.exporter.Close()
		}})
	}
	if err := overload.Drain(drainCtx, r.Gate(), steps...); err != nil {
		telemetry.Logger().Error("drain incomplete", "err", err)
		os.Exit(1)
	}
}
