package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/bravolock/bravo/internal/bias"
	"github.com/bravolock/bravo/internal/clock"
	"github.com/bravolock/bravo/internal/core"
	"github.com/bravolock/bravo/internal/histogram"
	"github.com/bravolock/bravo/internal/kvs"
	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/xrand"
)

// The shardedkv workload drives the Sharded KV engine with a configurable
// read/write mix and shard count, reporting throughput, read-latency
// percentiles, and — for BRAVO-wrapped substrates — the fast-path hit rate.
// It opens the scenario axis (sharding × substrate × mix) the single-stripe
// rocksdb workloads cannot: there, every reader hammers one lock; here the
// question is how far striping plus reader bias carries a KV front-end.

// ShardedKVKeys is the workload's keyspace (the paper's readwhilewriting
// uses --num=10000; a power of two keeps the modulo free).
const ShardedKVKeys = 1 << 14

// ShardedKVDefaultValueSize is the default value payload. Values are
// copied in and out under the shard lock, so the size sets the critical
// section length — the axis that separates engines once lock-path costs
// are equal.
const ShardedKVDefaultValueSize = 1024

// latencySampleMask subsamples read-latency measurement to one in 32
// operations so the clock reads do not dominate short critical sections.
const latencySampleMask = 31

// ShardedKVResult is one data point of the shardedkv workload, shaped for
// machine consumption (BENCH_shardedkv.json).
type ShardedKVResult struct {
	// Engine is "sharded" or "memtable" (the single-lock baseline).
	Engine string `json:"engine"`
	Lock   string `json:"lock"`
	Shards int    `json:"shards"`
	// Threads is the number of worker goroutines (each mixes reads and
	// writes per WriteRatio).
	Threads    int     `json:"threads"`
	WriteRatio float64 `json:"write_ratio"`
	ValueSize  int     `json:"value_size"`
	// Ops is the median total operation count per measurement interval.
	Ops float64 `json:"ops"`
	// ThroughputOpsPerSec is Ops normalized by the interval.
	ThroughputOpsPerSec float64 `json:"throughput_ops_per_sec"`
	// ReadP50Nanos / ReadP99Nanos are read-acquisition-to-return latency
	// percentile upper bounds from the log2 histogram (last run).
	ReadP50Nanos int64 `json:"read_p50_ns"`
	ReadP99Nanos int64 `json:"read_p99_ns"`
	// FastReadFraction is NFast/NReads from bias.Stats for BRAVO locks
	// (last run); -1 when the substrate exposes no BRAVO counters.
	FastReadFraction float64 `json:"fast_read_fraction"`
}

// ShardedKVReport is the top-level BENCH_shardedkv.json document.
type ShardedKVReport struct {
	Benchmark string `json:"benchmark"`
	// Meta attributes the run: commit, CPU shape, timestamp.
	Meta       RunMeta           `json:"meta"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	IntervalMS int64             `json:"interval_ms"`
	Runs       int               `json:"runs"`
	Keys       int               `json:"keys"`
	Results    []ShardedKVResult `json:"results"`
}

// WriteJSON renders the report as indented JSON.
func (r ShardedKVReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// NewShardedKVReport stamps the environment fields of a report.
func NewShardedKVReport(cfg Config, results []ShardedKVResult) ShardedKVReport {
	return ShardedKVReport{
		Benchmark:  "shardedkv",
		Meta:       NewRunMeta(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		IntervalMS: cfg.Interval.Milliseconds(),
		Runs:       cfg.Runs,
		Keys:       ShardedKVKeys,
		Results:    results,
	}
}

// shardedKVFactory resolves a lock lineup name to a per-shard factory. For
// plain "bravo-<substrate>" names it rebuilds the BRAVO wrapper around the
// registered substrate with stats attached, so the report can include the
// fast-path hit rate (stats stay nil — and the fraction -1 — for plain
// locks and for BRAVO ablation variants like bravo-ba-flat, which keep their
// registry construction).
func shardedKVFactory(lockName string) (mk rwl.Factory, stats *bias.Stats, err error) {
	if under, ok := strings.CutPrefix(lockName, "bravo-"); ok {
		if under == "go" { // registry alias asymmetry: bravo-go wraps go-rw
			under = "go-rw"
		}
		if mkUnder, ok := rwl.Lookup(under); ok {
			st := &bias.Stats{}
			return func() rwl.RWLock {
				return core.New(mkUnder(), core.WithStats(st))
			}, st, nil
		}
	}
	mk, ok := rwl.Lookup(lockName)
	if !ok {
		_, err := rwl.New(lockName) // produces the canonical unknown-name error
		return nil, nil, err
	}
	return mk, nil, nil
}

// kvEngine is the slice of the engines the workload drives. Reads go
// through GetInto with a reused per-worker buffer so the measured loop
// does not allocate.
type kvEngine interface {
	GetInto(key uint64, buf []byte) ([]byte, bool)
	Put(key uint64, value []byte)
}

// ShardedKV runs the sharded engine for one (lock, shards, threads, mix,
// value size) point. Shards must be a positive power of two.
func ShardedKV(lockName string, shards, threads int, writeRatio float64, valueSize int, cfg Config) (ShardedKVResult, error) {
	mk, stats, err := shardedKVFactory(lockName)
	if err != nil {
		return ShardedKVResult{}, err
	}
	res := ShardedKVResult{
		Engine: "sharded", Lock: lockName, Shards: shards,
		Threads: threads, WriteRatio: writeRatio, ValueSize: valueSize,
	}
	build := func() (kvEngine, error) { return kvs.NewSharded(shards, mk) }
	return runShardedKVPoint(res, build, stats, cfg)
}

// ShardedKVBaseline runs the same mix against the single-stripe Memtable —
// the pre-sharding engine — as the scaling baseline.
func ShardedKVBaseline(lockName string, threads int, writeRatio float64, valueSize int, cfg Config) (ShardedKVResult, error) {
	mk, stats, err := shardedKVFactory(lockName)
	if err != nil {
		return ShardedKVResult{}, err
	}
	res := ShardedKVResult{
		Engine: "memtable", Lock: lockName, Shards: 1,
		Threads: threads, WriteRatio: writeRatio, ValueSize: valueSize,
	}
	build := func() (kvEngine, error) { return kvs.NewMemtable(1, mk) }
	return runShardedKVPoint(res, build, stats, cfg)
}

// runShardedKVPoint executes cfg.Runs independent runs of the mixed
// workload against fresh engines, filling in the medians and the last run's
// latency histogram and stats snapshot.
func runShardedKVPoint(res ShardedKVResult, build func() (kvEngine, error), stats *bias.Stats, cfg Config) (ShardedKVResult, error) {
	if res.WriteRatio < 0 || res.WriteRatio > 1 {
		return res, fmt.Errorf("bench: write ratio %v outside [0, 1]", res.WriteRatio)
	}
	writeThreshold := uint64(res.WriteRatio * (1 << 20))
	if res.ValueSize < 8 {
		res.ValueSize = 8 // room for the encoded counter
	}
	value := make([]byte, res.ValueSize)
	var lastHist *histogram.Histogram
	var lastSnap bias.Snapshot
	var buildErr error
	res.Ops = cfg.Median(func() float64 {
		e, err := build()
		if err != nil {
			buildErr = err
			return 0
		}
		for k := uint64(0); k < ShardedKVKeys; k++ {
			copy(value, kvs.EncodeValue(k))
			e.Put(k, value)
		}
		var before bias.Snapshot
		if stats != nil {
			before = stats.Snapshot() // exclude population and prior runs
		}
		hist := &histogram.Histogram{}
		var histMu sync.Mutex
		total := RunWorkers(res.Threads, cfg.Interval, func(id int, stop *atomic.Bool) uint64 {
			rng := xrand.NewXorShift64(uint64(id)*0x9e3779b97f4a7c15 + 1)
			local := &histogram.Histogram{}
			wval := make([]byte, res.ValueSize)    // reused write buffer
			rbuf := make([]byte, 0, res.ValueSize) // reused read buffer
			var ops uint64
			for !stop.Load() {
				k := rng.Intn(ShardedKVKeys)
				if rng.Next()&(1<<20-1) < writeThreshold {
					copy(wval, kvs.EncodeValue(rng.Next()))
					e.Put(k, wval)
				} else if ops&latencySampleMask == 0 {
					start := clock.Nanos()
					rbuf, _ = e.GetInto(k, rbuf)
					local.Record(clock.Nanos() - start)
				} else {
					rbuf, _ = e.GetInto(k, rbuf)
				}
				ops++
			}
			histMu.Lock()
			hist.Merge(local)
			histMu.Unlock()
			return ops
		})
		lastHist = hist
		if stats != nil {
			after := stats.Snapshot()
			lastSnap = bias.Snapshot{
				FastRead:      after.FastRead - before.FastRead,
				SlowDisabled:  after.SlowDisabled - before.SlowDisabled,
				SlowCollision: after.SlowCollision - before.SlowCollision,
				SlowRaced:     after.SlowRaced - before.SlowRaced,
			}
		}
		return float64(total)
	})
	if buildErr != nil {
		return res, buildErr
	}
	res.ThroughputOpsPerSec = res.Ops / cfg.Interval.Seconds()
	if lastHist != nil && lastHist.Count() > 0 {
		res.ReadP50Nanos = lastHist.Percentile(50)
		res.ReadP99Nanos = lastHist.Percentile(99)
	}
	res.FastReadFraction = -1
	if stats != nil {
		res.FastReadFraction = lastSnap.FastFraction()
	}
	return res, nil
}

// ShardedKVSweep runs the full scenario grid: for each lock, the memtable
// baseline plus the sharded engine at each shard count, across the thread
// axis. Results arrive in deterministic order (lock, engine, shards,
// threads).
func ShardedKVSweep(locks []string, shardCounts, threads []int, writeRatio float64, valueSize int, cfg Config) ([]ShardedKVResult, error) {
	var out []ShardedKVResult
	for _, lock := range locks {
		for _, tc := range threads {
			r, err := ShardedKVBaseline(lock, tc, writeRatio, valueSize, cfg)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		for _, sc := range shardCounts {
			for _, tc := range threads {
				r, err := ShardedKV(lock, sc, tc, writeRatio, valueSize, cfg)
				if err != nil {
					return nil, err
				}
				out = append(out, r)
			}
		}
	}
	return out, nil
}

// WriteShardedKVTable renders sweep results as the aligned human-readable
// companion of the JSON report.
func WriteShardedKVTable(w io.Writer, results []ShardedKVResult) {
	const format = "%-10s %-14s %7s %8s %14s %10s %10s %8s\n"
	fmt.Fprintf(w, format, "engine", "lock", "shards", "threads", "ops/sec", "p50(ns)", "p99(ns)", "fast%")
	for _, r := range results {
		fast := "-"
		if r.FastReadFraction >= 0 {
			fast = fmt.Sprintf("%.1f", 100*r.FastReadFraction)
		}
		fmt.Fprintf(w, format, r.Engine, r.Lock,
			fmt.Sprintf("%d", r.Shards), fmt.Sprintf("%d", r.Threads),
			fmt.Sprintf("%.0f", r.ThroughputOpsPerSec),
			fmt.Sprintf("%d", r.ReadP50Nanos), fmt.Sprintf("%d", r.ReadP99Nanos), fast)
	}
}
