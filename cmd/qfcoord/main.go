// Command qfcoord is the cluster coordinator daemon: it owns fragment
// assignment for the distributed master–leader–worker runtime (the
// top level of the paper's three-level MPI hierarchy, §V-B), leasing
// fragments to qfworker daemons under timed leases, reassigning them on
// lease expiry or worker death (the first result from any worker wins),
// and layering its
// content-addressed store over the workers' local stores as the
// cluster-wide cache tier.
//
// Examples:
//
//	qfcoord -listen :7070 -store /var/qf/coord-store
//	qfcoord -listen 127.0.0.1:7070 -lease-timeout 5m -metrics-out -
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"qframan/internal/cluster"
	"qframan/internal/obs"
	"qframan/internal/store"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7070", "TCP listen address")
	storeDir := flag.String("store", "", "coordinator content-addressed store directory (the cluster-wide cache tier; empty disables)")
	leaseTimeout := flag.Duration("lease-timeout", 2*time.Minute, "reassign leases older than this")
	hbTimeout := flag.Duration("heartbeat-timeout", 15*time.Second, "declare silent workers dead after this")
	retries := flag.Int("task-retries", 3, "transient failures per task before the owning job fails")
	metricsOut := flag.String("metrics-out", "", "write a final metrics snapshot to this file on shutdown; '-' for stderr")
	quiet := flag.Bool("quiet", false, "suppress operational logging")
	flag.Parse()

	if err := run(*listen, *storeDir, *leaseTimeout, *hbTimeout, *retries, *metricsOut, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, "qfcoord:", err)
		os.Exit(1)
	}
}

func run(listen, storeDir string, leaseTimeout, hbTimeout time.Duration, retries int, metricsOut string, quiet bool) error {
	cfg := cluster.CoordConfig{
		LeaseTimeout:     leaseTimeout,
		HeartbeatTimeout: hbTimeout,
		MaxTaskRetries:   retries,
		Registry:         obs.NewRegistry(),
	}
	if !quiet {
		cfg.Logf = log.New(os.Stderr, "", log.LstdFlags).Printf
	}
	if storeDir != "" {
		st, err := store.Open(storeDir)
		if err != nil {
			return err
		}
		defer st.Close()
		cfg.Store = st
	}
	co := cluster.NewCoordinator(cfg)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	closed := make(chan struct{})
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "qfcoord: shutting down")
		co.Close()
		close(closed)
	}()

	fmt.Fprintf(os.Stderr, "qfcoord: listening on %s (protocol v%d)\n", listen, cluster.ProtoVersion)
	err := co.ListenAndServe(listen)
	if err == nil {
		// Serve returns nil only once Close has begun; wait until the
		// connection handlers have drained before the store closes.
		<-closed
	}
	if metricsOut != "" {
		w := os.Stderr
		if metricsOut != "-" {
			f, ferr := os.Create(metricsOut)
			if ferr != nil {
				return ferr
			}
			defer f.Close()
			w = f
		}
		bw := bufio.NewWriter(w)
		if serr := cfg.Registry.Snapshot().WriteText(bw); serr != nil {
			return serr
		}
		if serr := bw.Flush(); serr != nil {
			return serr
		}
	}
	return err
}
