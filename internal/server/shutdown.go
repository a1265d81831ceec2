package server

import (
	"context"
	"errors"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Process lifecycle shared by every long-running binary in the repo (kpd,
// kpsolve -serve): a signal-canceled context plus an HTTP
// serve loop that drains in-flight requests on shutdown instead of dying
// mid-response (a killed scrape used to truncate /metrics bodies; a killed
// solve wasted the whole Krylov phase).

// SignalContext returns a context canceled on SIGINT or SIGTERM. The stop
// function releases the signal registration; a second signal after
// cancellation kills the process via the default handler, so a wedged
// drain can still be interrupted by hand.
func SignalContext(parent context.Context) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
	// NotifyContext keeps the signal registration (and so keeps swallowing
	// signals) until stop is called; unregister as soon as the context is
	// canceled so the documented second-signal escape hatch actually works.
	go func() {
		<-ctx.Done()
		stop()
	}()
	return ctx, stop
}

// ServeUntil serves h on ln until ctx is canceled, then gracefully drains:
// the listener closes immediately (new connections are refused) while
// in-flight requests get up to grace to finish. It returns nil after a
// clean drain, the drain error if grace expired with requests still
// running (they are then hard-closed), or the serve error if the listener
// failed before ctx was done.
func ServeUntil(ctx context.Context, ln net.Listener, h http.Handler, grace time.Duration) error {
	srv := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		srv.Close()
		return err
	}
	return nil
}
