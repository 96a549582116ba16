package main

import (
	"flag"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"qframan/internal/cluster"
	"qframan/internal/core"
	"qframan/internal/fragment"
	"qframan/internal/store"
)

// TestFlagsToConfig pins the command line's contract with the pipeline: what
// a bare invocation configures, which flag combinations are refused before
// anything runs, and how the cache and chaos flags land in sched.Options.
func TestFlagsToConfig(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string // substring; empty means config must succeed
		check   func(t *testing.T, cfg core.Config)
	}{
		{
			name: "defaults are core.DefaultConfig plus the CLI's own",
			check: func(t *testing.T, cfg core.Config) {
				want := core.DefaultConfig()
				want.Raman.FreqMin, want.Raman.FreqMax, want.Raman.FreqStep = 100, 4000, 2
				want.Raman.Sigma = 5
				want.Raman.LanczosK = 150
				want.Sched.NumLeaders = max(1, runtime.NumCPU()/2)
				want.Partitioner = fragment.QFPartitioner{Opt: want.Fragment}
				if !reflect.DeepEqual(cfg, want) {
					t.Fatalf("bare invocation configures\n%+v\nwant\n%+v", cfg, want)
				}
			},
		},
		{name: "-resume needs a store", args: []string{"-resume"}, wantErr: "-resume requires -cache-dir"},
		{name: "-traj refuses -cluster", args: []string{"-traj", "t.xyz", "-cluster", "127.0.0.1:1"}, wantErr: "-traj cannot run over -cluster"},
		{name: "-traj refuses -ir", args: []string{"-traj", "t.xyz", "-ir", "ir.tsv"}, wantErr: "-ir is not supported with -traj"},
		{name: "unknown partitioner", args: []string{"-partitioner", "voronoi"}, wantErr: "unknown partitioner"},
		{name: "-workers is no flag", args: []string{"-workers", "1"}, wantErr: "flag provided but not defined: -workers"},
		{name: "-dense is no flag", args: []string{"-dense"}, wantErr: "flag provided but not defined: -dense"},
		{
			name: "-cache-dir checkpoints and dedupes, serves nothing old",
			args: []string{"-cache-dir", t.TempDir()},
			check: func(t *testing.T, cfg core.Config) {
				if c := cfg.Sched.Cache; c.Store == nil || c.Resume || c.ReadOnly {
					t.Fatalf("cache options %+v", c)
				}
			},
		},
		{
			name: "-checkpoint=false is a read-only store",
			args: []string{"-cache-dir", t.TempDir(), "-resume", "-checkpoint=false"},
			check: func(t *testing.T, cfg core.Config) {
				if c := cfg.Sched.Cache; c.Store == nil || !c.Resume || !c.ReadOnly {
					t.Fatalf("cache options %+v", c)
				}
			},
		},
		{
			name: "-fail-frag installs an injector that fails that fragment for good",
			args: []string{"-fail-frag", "3", "-max-failed", "1", "-retries", "5"},
			check: func(t *testing.T, cfg core.Config) {
				inj := cfg.Sched.Injector
				if inj == nil {
					t.Fatal("no injector")
				}
				if inj.Plan(3, 1).Err == nil || inj.Plan(2, 1).Err != nil {
					t.Fatal("injector does not single out fragment 3")
				}
				if cfg.Sched.MaxFailedFragments != 1 || cfg.Sched.Retry.MaxAttempts != 5 {
					t.Fatalf("fail-soft budget %d, attempts %d", cfg.Sched.MaxFailedFragments, cfg.Sched.Retry.MaxAttempts)
				}
			},
		},
		{
			name: "physics-free overrides reach their fields",
			args: []string{"-ir", "ir.tsv", "-leaders", "3", "-sigma", "20",
				"-partitioner", "graph", "-frag-size", "30", "-cluster", "127.0.0.1:1"},
			check: func(t *testing.T, cfg core.Config) {
				gp, ok := cfg.Partitioner.(fragment.GraphPartitioner)
				if !ok || gp.Opt.TargetAtoms != 30 {
					t.Fatalf("partitioner %+v", cfg.Partitioner)
				}
				if _, ok := cfg.Sched.Backend.(*cluster.Client); !ok {
					t.Fatalf("backend %T, want the cluster client", cfg.Sched.Backend)
				}
				if !cfg.IR || cfg.Sched.NumLeaders != 3 ||
					cfg.Raman.Sigma != 20 {
					t.Fatalf("config %+v", cfg)
				}
				if !reflect.DeepEqual(cfg.Sched.Job, core.DefaultConfig().Sched.Job) {
					t.Fatal("a non-physics flag moved the job options (and with them every store key)")
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var o options
			fs := flag.NewFlagSet("qframan", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			o.register(fs)
			err := fs.Parse(tc.args)
			var cfg core.Config
			var st *store.Store
			if err == nil {
				cfg, st, err = o.config()
			}
			if st != nil {
				defer st.Close()
			}
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("got error %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, cfg)
		})
	}
}
