package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
)

// runner is one benchmark workload, built by its constructor (the
// timed set-up) and then driven once through its simulated horizon.
type runner interface {
	// run drives the simulated horizon and drains it. Each RunUntil
	// call is wrapped in a tracer phase; tr is nil when untraced.
	run(tr *Tracer)
	// outcome reports the simulated outputs, checked against the
	// workload's invariants.
	outcome() outcome
	close()
}

// builder constructs a workload from its seed with the given number of
// host workers (only the partitioned serve workload uses more than one).
type builder func(seed int64, workers int) (runner, error)

// outcome is what one run produced in simulated terms. None of it is a
// timing: it is identical on every run of the same seed.
type outcome struct {
	digest    string // hash of every simulated output
	attempted int64  // simulated client operations attempted
	failed    int64  // operations that errored, timed out or lost acked data
	// counts are the per-layer counts and simulated latencies read from
	// public accessors and from the workload's own call sites.
	counts map[string]float64
	// err is the first invariant violation, nil when all hold.
	err error
}

var workloads = map[string]builder{
	"serve":    newServe,
	"failover": newFailover,
	"harvest":  newHarvest,
}

// committedSeed is the seed whose digests are committed below. A run at
// this seed must reproduce them exactly; runs at other seeds are held
// to the invariants and to agreement between their own repetitions.
const committedSeed = 1

var committedDigest = map[string]string{
	"serve":    "6b37e19c95ed929b6ba110f462a25ad8429f1b73045bf3a9ba7a031ab94cb238",
	"failover": "661e698d3461d58e70919016e391de5876ada2e1518fad2349015a703be24508",
	"harvest":  "248902210638bdd3cf9b6aa4cc92149a2903a8e9e44d480ed728c0e1e0e67da9",
}

// digester hashes simulated outputs in a fixed textual form.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) add(name string, v any) { fmt.Fprintf(d.h, "%s=%v\n", name, v) }

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// p99 returns the nearest-rank 99th percentile of simulated latencies.
func p99(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)*99+99)/100-1]
}
