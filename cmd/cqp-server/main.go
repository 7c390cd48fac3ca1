// Command cqp-server runs the location-aware server: a TCP endpoint that
// accepts object/query reports, evaluates all continuous queries in bulk
// every interval, and streams incremental positive/negative updates to
// subscribers, with durable committed answers for out-of-sync recovery.
//
// Example:
//
//	cqp-server -addr :7171 -interval 5s -grid 64 -repo /var/lib/cqp
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

	"cqp"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7171", "listen address")
		interval = flag.Duration("interval", 5*time.Second, "bulk evaluation period (the paper's Δt)")
		gridN    = flag.Int("grid", 64, "grid cells per axis")
		size     = flag.Float64("size", 1.0, "monitored space is the square [0,size)²")
		horizon  = flag.Float64("horizon", 100, "predictive trajectory horizon (seconds)")
		shards   = flag.Int("shards", 1, "spatial shards, each a tile engine stepping on its own goroutine: the way to use more than one core (1 = single engine)")

		shardRepart = flag.Bool("shard-repartition", false, "split hot tiles and merge cold ones under load skew (shards > 1)")
		repoDir     = flag.String("repo", "", "repository directory for durable commits and location history (empty = in-memory only)")

		readTO    = flag.Duration("read-timeout", 45*time.Second, "reap sessions silent for this long (0 = never)")
		writeTO   = flag.Duration("write-timeout", 5*time.Second, "per-frame write deadline (<0 = none)")
		heartbeat = flag.Duration("heartbeat", 15*time.Second, "server→client heartbeat period (0 = off)")
		outbox    = flag.Int("outbox", 256, "per-session outbound queue depth; size it from the sheds the serve-bulk and ingest-flood benchmark workloads report")
		maxFrame  = flag.Uint("max-frame", 1<<20, "largest accepted inbound frame in bytes")

		metricsAddr = flag.String("metrics", "", "serve a JSON metrics snapshot and pprof on this address (e.g. :6060; empty = off)")
		metricsLog  = flag.Duration("metrics-log", 0, "log a metrics snapshot this often (0 = off; implies metrics collection)")
	)
	flag.Parse()

	var reg *cqp.MetricsRegistry
	if *metricsAddr != "" || *metricsLog > 0 {
		reg = cqp.NewMetricsRegistry()
	}

	srv, err := cqp.Listen(*addr, cqp.ServerConfig{
		Engine: cqp.Options{
			Bounds:            cqp.R(0, 0, *size, *size),
			GridN:             *gridN,
			PredictiveHorizon: *horizon,
		},
		Shards:            *shards,
		ShardRepartition:  cqp.ShardRepartitionOptions{Enable: *shardRepart},
		Interval:          *interval,
		RepositoryDir:     *repoDir,
		ReadTimeout:       *readTO,
		WriteTimeout:      *writeTO,
		HeartbeatInterval: *heartbeat,
		OutboxSize:        *outbox,
		MaxFrame:          uint32(*maxFrame),
		Metrics:           reg,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cqp-server:", err)
		os.Exit(1)
	}
	log.Printf("cqp-server listening on %s (Δt=%v, grid %dx%d, space [0,%g)²)",
		srv.Addr(), *interval, *gridN, *gridN, *size)
	if *repoDir != "" {
		log.Printf("repository: %s", *repoDir)
	}
	stopMetrics := make(chan struct{})
	if *metricsAddr != "" {
		//lint:allow golifecycle the metrics listener serves for the whole process lifetime and dies with main; there is nothing to join
		go func() {
			log.Printf("metrics on http://%s/metrics (pprof under /debug/pprof/)", *metricsAddr)
			if err := http.ListenAndServe(*metricsAddr, cqp.MetricsHandler(reg)); err != nil {
				log.Printf("metrics: %v", err)
			}
		}()
	}
	if *metricsLog > 0 {
		go cqp.MetricsLogLoop(reg, *metricsLog, log.Printf, stopMetrics)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Println("shutting down")
	close(stopMetrics)
	if err := srv.Close(); err != nil {
		log.Printf("close: %v", err)
	}
	st := srv.Stats()
	log.Printf("served %d steps: %d object reports, %d query reports, +%d/−%d updates",
		st.Steps, st.ObjectReports, st.QueryReports, st.PositiveUpdates, st.NegativeUpdates)
}
