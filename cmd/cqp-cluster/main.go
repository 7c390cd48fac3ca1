// Command cqp-cluster runs the location-aware server with its query
// processor distributed across worker processes: a coordinator owns the
// spatial router and the TCP front end, and each tile's engine lives in
// a worker process the coordinator spawns by re-executing this binary.
//
// The merged update stream clients see is bit-identical to the
// in-process engine's. Workers are supervised: heartbeat deadlines
// detect dead or wedged workers, their tiles degrade to in-process
// fallback engines (clients notice nothing), and recovered workers are
// respawned with backoff and handed their tiles back only after a
// checksum-verified resync. See internal/cluster.
//
// Example:
//
//	cqp-cluster -addr :7171 -workers 4 -rows 2 -cols 2 -interval 5s
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cqp/internal/cluster"
	"cqp/internal/core"
	"cqp/internal/geo"
	"cqp/internal/obs"
	"cqp/internal/server"
	"cqp/internal/shard"
)

func main() {
	// When the coordinator re-executes this binary as a tile worker, the
	// CQP_CLUSTER_* environment is set and the process never reaches the
	// flag parsing below.
	if handled, err := cluster.RunWorkerFromEnv(); handled {
		if err != nil {
			fmt.Fprintln(os.Stderr, "cqp-cluster worker:", err)
			os.Exit(1)
		}
		return
	}

	var (
		addr     = flag.String("addr", "127.0.0.1:7171", "listen address")
		interval = flag.Duration("interval", 5*time.Second, "bulk evaluation period (the paper's Δt)")
		gridN    = flag.Int("grid", 64, "grid cells per axis (per tile)")
		size     = flag.Float64("size", 1.0, "monitored space is the square [0,size)²")
		horizon  = flag.Float64("horizon", 100, "predictive trajectory horizon (seconds)")
		rows     = flag.Int("rows", 2, "tile rows of the spatial split")
		cols     = flag.Int("cols", 2, "tile columns of the spatial split")
		workers  = flag.Int("workers", 2, "worker processes; tiles are pinned round-robin")
		repoDir  = flag.String("repo", "", "repository directory for durable commits (empty = in-memory only)")

		shardRepart = flag.Bool("shard-repartition", false, "split hot tiles and merge cold ones under load skew")

		hbInterval = flag.Duration("worker-heartbeat", 100*time.Millisecond, "coordinator→worker heartbeat period")
		hbTimeout  = flag.Duration("worker-timeout", time.Second, "heartbeat-echo age past which a worker is declared dead")
		resyncTO   = flag.Duration("resync-timeout", 2*time.Second, "deadline for a recovered worker's verified resync")

		metricsAddr = flag.String("metrics", "", "serve a JSON metrics snapshot and pprof on this address (empty = off)")
		metricsLog  = flag.Duration("metrics-log", 0, "log a metrics snapshot this often (0 = off)")
	)
	flag.Parse()

	var reg *obs.Registry
	if *metricsAddr != "" || *metricsLog > 0 {
		reg = obs.NewRegistry()
	}

	copt := core.Options{
		Bounds:            geo.R(0, 0, *size, *size),
		GridN:             *gridN,
		PredictiveHorizon: *horizon,
		Metrics:           reg,
	}
	if reg != nil {
		copt.Clock = obs.WallClock
	}
	spawner, err := cluster.NewExecSpawner([]string{os.Args[0]})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cqp-cluster:", err)
		os.Exit(1)
	}
	cl, err := cluster.New(cluster.Config{
		Shard: shard.Options{
			Core: copt, Rows: *rows, Cols: *cols,
			Repartition: shard.RepartitionOptions{Enable: *shardRepart},
		},
		Workers:           *workers,
		Spawner:           spawner,
		HeartbeatInterval: *hbInterval,
		HeartbeatTimeout:  *hbTimeout,
		ResyncTimeout:     *resyncTO,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cqp-cluster:", err)
		os.Exit(1)
	}

	// The server owns the cluster from here: Close closes it.
	srv, err := server.Listen(*addr, server.Config{
		Engine:        copt,
		Processor:     cl,
		Interval:      *interval,
		RepositoryDir: *repoDir,
		Metrics:       reg,
	})
	if err != nil {
		cl.Close()
		fmt.Fprintln(os.Stderr, "cqp-cluster:", err)
		os.Exit(1)
	}
	log.Printf("cqp-cluster listening on %s (Δt=%v, %dx%d tiles on %d workers, space [0,%g)²)",
		srv.Addr(), *interval, *rows, *cols, *workers, *size)
	if *repoDir != "" {
		log.Printf("repository: %s", *repoDir)
	}

	stopMetrics := make(chan struct{})
	if *metricsAddr != "" {
		//lint:allow golifecycle the metrics listener serves for the whole process lifetime and dies with main; there is nothing to join
		go func() {
			log.Printf("metrics on http://%s/metrics (pprof under /debug/pprof/)", *metricsAddr)
			if err := http.ListenAndServe(*metricsAddr, obs.Handler(reg)); err != nil {
				log.Printf("metrics: %v", err)
			}
		}()
	}
	if *metricsLog > 0 {
		go obs.LogLoop(reg, *metricsLog, log.Printf, stopMetrics)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Println("shutting down")
	close(stopMetrics)
	if err := srv.Close(); err != nil {
		log.Printf("close: %v", err)
	}
}
