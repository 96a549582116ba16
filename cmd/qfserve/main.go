// Command qfserve is the high-throughput spectra daemon: an HTTP/JSON
// frontend (internal/serve) over the shared fragment scheduler and
// content-addressed checkpoint store, in the spirit of high-throughput
// Raman pipelines where many structures flow through one computation
// service. Jobs from multiple tenants are admitted under bounded queues,
// scheduled by weighted fair share, and share fragment results across jobs
// and tenants through one store.
//
//	qfserve -addr :8080 -store /var/lib/qframan/store -tenants alice=3,bob=1
//	curl -d '{"tenant":"alice","system":{"kind":"waterbox","nx":2,"ny":2,"nz":2}}' localhost:8080/jobs
//	curl localhost:8080/jobs/$id  # the unguessable ID from the submit response
//	kill -TERM $(pidof qfserve)   # graceful drain
//
// Job IDs are capabilities (96 random bits); a front proxy that
// authenticates tenants can inject X-Tenant, which the daemon enforces
// against the job's owner on reads and cancels.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"qframan/internal/cluster"
	"qframan/internal/par"
	"qframan/internal/serve"
	"qframan/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	storeDir := flag.String("store", "", "shared checkpoint store directory (empty = no cache)")
	runners := flag.Int("runners", 2, "jobs executing concurrently")
	leaders := flag.Int("leaders", 2, "scheduler leaders per job")
	kernelThreads := flag.Int("kernel-threads", 0, "intra-fragment kernel thread budget (0 = default)")
	inflight := flag.Int("max-inflight", 0, "max fragment attempts in flight across jobs (0 = default, <0 = unbounded)")
	maxQueued := flag.Int("max-queued", serve.DefaultMaxQueuedJobs, "admission bound on queued jobs")
	maxPerTenant := flag.Int("max-queued-per-tenant", 0, "per-tenant queue bound (0 = same as -max-queued)")
	maxAtoms := flag.Int("max-atoms", serve.DefaultMaxAtomsPerJob, "admission bound on atoms per job")
	tenants := flag.String("tenants", "", "fair-share weights, e.g. alice=3,bob=1 (unlisted tenants weigh 1)")
	grace := flag.Duration("grace", 30*time.Second, "drain grace period on SIGTERM/SIGINT")
	clusterAddr := flag.String("cluster", "", "dispatch every job's fragments to a qfcoord coordinator at this address instead of computing in-process")
	flag.Parse()

	if *kernelThreads > 0 {
		par.SetBudget(*kernelThreads)
	}

	weights, err := parseWeights(*tenants)
	if err != nil {
		fatal(err)
	}

	cfg := serve.Config{
		Tenants:              weights,
		Runners:              *runners,
		NumLeaders:           *leaders,
		MaxInflightFragments: *inflight,
		MaxQueuedJobs:        *maxQueued,
		MaxQueuedPerTenant:   *maxPerTenant,
		MaxAtomsPerJob:       *maxAtoms,
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			fatal(fmt.Errorf("open store: %w", err))
		}
		defer st.Close()
		cfg.Store = st
	}
	if *clusterAddr != "" {
		cfg.Backend = cluster.NewClient(*clusterAddr)
	}

	s := serve.New(cfg)
	hs := &http.Server{Addr: *addr, Handler: s.Handler()}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := <-sigc
		fmt.Printf("qfserve: %v: draining (grace %v)\n", sig, *grace)
		if err := s.Drain(*grace); err != nil {
			fmt.Fprintf(os.Stderr, "qfserve: %v\n", err)
		} else {
			fmt.Println("qfserve: drain complete")
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
	}()

	fmt.Printf("qfserve: listening on %s (runners=%d leaders=%d store=%q)\n",
		*addr, *runners, *leaders, *storeDir)
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
	<-done
}

// parseWeights parses "a=3,b=1".
func parseWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad -tenants entry %q (want name=weight)", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad weight in -tenants entry %q", part)
		}
		out[name] = w
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "qfserve: %v\n", err)
	os.Exit(1)
}
