// Command bigmap-corpusd runs the content-addressed corpus service: an HTTP
// daemon that lets fuzzing workers in different processes — or on different
// machines — share one campaign's corpus, crash buckets and coverage.
// Inputs are stored once per content hash, coverage travels as virgin-map
// deltas (only the words that changed), and every accepted batch is sealed
// into a hash-chained ledger, so the whole campaign history is verifiable
// and survives daemon restarts.
//
//	bigmap-corpusd -addr :8766 -dir /var/lib/bigmap-corpus
//
// Workers attach with bigmap-fuzz -join http://host:8766 (see
// docs/DISTRIBUTED.md for the wire protocol and a two-terminal quickstart).
// Without -dir the store is memory-only: useful for tests and throwaway
// campaigns, nothing survives the process.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/bigmap/bigmap/internal/corpusd"
	"github.com/bigmap/bigmap/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bigmap-corpusd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bigmap-corpusd", flag.ContinueOnError)
	addr := fs.String("addr", ":8766", "HTTP listen address")
	dir := fs.String("dir", "", "state directory (campaign ledgers; empty = memory-only)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	store, err := corpusd.New(*dir, telemetry.New())
	if err != nil {
		return err
	}
	defer store.Close()
	if *dir != "" {
		if names := store.Campaigns(); len(names) > 0 {
			fmt.Fprintf(os.Stderr, "bigmap-corpusd: recovered %d campaign(s): %v\n", len(names), names)
		}
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           store.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	where := *dir
	if where == "" {
		where = "memory (nothing persists)"
	}
	fmt.Fprintf(os.Stderr, "bigmap-corpusd: listening on %s, state in %s\n", *addr, where)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)

	select {
	case err := <-serveErr:
		return fmt.Errorf("http server: %w", err)
	case sig := <-stop:
		fmt.Fprintf(os.Stderr, "bigmap-corpusd: %v, shutting down\n", sig)
	}

	// Every accepted push is durable before its response is sent (one
	// fsynced ledger append carrying the batch's bodies), so shutdown only
	// needs to stop taking requests — there is no state to flush.
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(shutCtx)
	return nil
}
