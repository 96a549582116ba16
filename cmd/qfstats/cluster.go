package main

import (
	"fmt"
	"time"

	"qframan/internal/cluster"
)

// clusterStats queries a live coordinator's STATS RPC and renders the
// snapshot: worker roster, task states, lease churn, and cache-tier hit
// ratios.
func clusterStats(addr string) error {
	s, err := cluster.FetchStats(addr, 10*time.Second)
	if err != nil {
		return err
	}
	fmt.Printf("coordinator %s (protocol v%d)\n", addr, s.Proto)
	fmt.Printf("  workers: %d connected, clients: %d\n", len(s.Workers), s.Clients)
	for _, w := range s.Workers {
		fmt.Printf("    %-16s session %-4d slots %-3d inflight %-3d fragments %-6d last seen %dms ago\n",
			w.Name, w.Session, w.Slots, w.Inflight, w.Fragments, w.LastSeen)
	}
	fmt.Printf("  tasks: %d pending, %d leased, %d waiting, %d done\n",
		s.TasksPending, s.TasksLeased, s.TasksWaiting, s.TasksDone)
	fmt.Printf("  leases: %d granted, %d reassigned, %d duplicate results, %d task failures\n",
		s.Leases, s.Reassigns, s.DupResults, s.TaskFails)
	served := s.TierLocal + s.TierCoord + s.Recomputes
	fmt.Printf("  cache tiers (of %d fragments served):\n", served)
	tier := func(name string, n uint64) {
		pct := 0.0
		if served > 0 {
			pct = 100 * float64(n) / float64(served)
		}
		fmt.Printf("    %-10s %8d  (%5.1f%%)\n", name, n, pct)
	}
	tier("coord", s.TierCoord)
	tier("local", s.TierLocal)
	tier("recompute", s.Recomputes)
	fmt.Printf("  jobs: %d done, %d failed\n", s.JobsDone, s.JobsFailed)
	if s.StoreObjects > 0 {
		fmt.Printf("  store: %d objects, %d bytes\n", s.StoreObjects, s.StoreBytes)
	}
	return nil
}
