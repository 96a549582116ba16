// Command qfworker is the cluster worker daemon: it connects to a qfcoord
// coordinator, executes fragment leases with the in-process SCF+DFPT
// engine (each slot is a leader of the paper's master–leader–worker
// hierarchy, §V-B; the worker level is the kernel budget, -kernel-threads),
// resolves each lease from its local store or else by recomputing (the
// coordinator already served what its own store held), and streams
// canonical result blobs back.
// It reconnects with exponential backoff when the coordinator link drops.
//
// Examples:
//
//	qfworker -coord 127.0.0.1:7070 -name node1 -slots 4
//	qfworker -coord coord:7070 -store /var/qf/worker-store -kernel-threads 8
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"qframan/internal/cluster"
	"qframan/internal/par"
	"qframan/internal/store"
)

func main() {
	coord := flag.String("coord", "127.0.0.1:7070", "coordinator TCP address")
	name := flag.String("name", hostname(), "worker name (per-worker metrics label)")
	slots := flag.Int("slots", max(1, runtime.NumCPU()/2), "concurrent fragment leases")
	kernelThreads := flag.Int("kernel-threads", 0, "intra-fragment kernel thread budget (0 = GOMAXPROCS)")
	storeDir := flag.String("store", "", "worker-local content-addressed store directory (the local cache tier; empty disables)")
	throttle := flag.Duration("throttle", 0, "sleep this long before computing each fragment (chaos/testing knob)")
	reconnects := flag.Int("max-reconnects", 0, "reconnection attempts after a lost connection (0 = retry forever)")
	quiet := flag.Bool("quiet", false, "suppress operational logging")
	flag.Parse()

	if *kernelThreads > 0 {
		par.SetBudget(*kernelThreads)
	}
	if err := run(*coord, *name, *slots, *storeDir, *throttle, *reconnects, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, "qfworker:", err)
		os.Exit(1)
	}
}

func hostname() string {
	h, err := os.Hostname()
	if err != nil {
		return "worker"
	}
	return h
}

func run(coord, name string, slots int, storeDir string, throttle time.Duration, reconnects int, quiet bool) error {
	cfg := cluster.WorkerConfig{
		Addr:          coord,
		Name:          name,
		Slots:         slots,
		Throttle:      throttle,
		MaxReconnects: reconnects,
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

	ctx, cancel := context.WithCancel(context.Background())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "qfworker: shutting down")
		cancel()
	}()

	fmt.Fprintf(os.Stderr, "qfworker: %s serving %d slots for %s (protocol v%d)\n",
		name, slots, coord, cluster.ProtoVersion)
	err := cluster.NewWorker(cfg).Run(ctx)
	if err == context.Canceled {
		return nil
	}
	return err
}
