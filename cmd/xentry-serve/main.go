// Command xentry-serve runs the distributed campaign coordinator: an
// HTTP/JSON service that accepts fault-injection campaign specs, splits
// each campaign into activation-sorted shards, leases them to in-process
// worker sessions, and records every outcome in a durable write-ahead
// store so interrupted campaigns resume instead of restarting.
//
// Usage:
//
//	xentry-serve [-addr :8044] [-data DIR] [-workers N] [-shard-size N]
//	             [-max-attempts N] [-shard-timeout D] [-fleet ADDR]
//
// API:
//
//	POST /campaigns                submit (or resume) a campaign spec
//	GET  /campaigns                list campaign statuses
//	GET  /campaigns/{id}           one campaign's live status
//	GET  /campaigns/{id}/events    server-sent event stream of progress
//	GET  /campaigns/{id}/result    finished campaign's evaluation report
//	GET  /metrics                  Prometheus-style counters
//	GET  /debug/pprof/             runtime profiles
//
// Submit campaigns with `xentry-campaign -server http://host:8044` or any
// HTTP client.
//
// -fleet ADDR additionally opens the binary shard-protocol listener for
// remote xentry-worker processes; campaigns submitted with
// "execution": "fleet" are then executed by whatever workers are
// connected instead of in-process sessions, with all result traffic on
// the binary data plane and only control traffic on HTTP. Both kinds of
// session speak the same shard protocol to the same lease scheduler.
package main

import (
	"flag"
	"log"
	"net/http"
	"runtime"

	"xentry/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("xentry-serve: ")
	addr := flag.String("addr", ":8044", "listen address")
	data := flag.String("data", "xentry-data", "root directory for campaign result stores")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"in-process worker sessions per campaign (campaigns with execution \"fleet\" use remote workers instead)")
	shardSize := flag.Int("shard-size", 64, "plan indices per shard")
	maxAttempts := flag.Int("max-attempts", 3, "attempts per shard before the campaign fails")
	shardTimeout := flag.Duration("shard-timeout", 0,
		"lease timeout: a shard lease with no accepted batch for this long expires and consumes an attempt (0 = 2m default)")
	fleetAddr := flag.String("fleet", "",
		"fleet listener address for remote xentry-worker processes (empty = fleet execution disabled)")
	flag.Parse()

	var fleet *server.Fleet
	if *fleetAddr != "" {
		var err error
		fleet, err = server.NewFleet(*fleetAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer fleet.Close()
		log.Printf("fleet listener on %s", fleet.Addr())
	}

	s, err := server.NewServer(server.Config{
		DataDir:      *data,
		Workers:      *workers,
		ShardSize:    *shardSize,
		MaxAttempts:  *maxAttempts,
		ShardTimeout: *shardTimeout,
		Fleet:        fleet,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()

	log.Printf("serving on %s (data %s, %d workers, shard size %d)",
		*addr, *data, *workers, *shardSize)
	if err := http.ListenAndServe(*addr, s.Handler()); err != nil {
		log.Fatal(err)
	}
}
