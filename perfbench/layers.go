package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"txkv/internal/cluster"
	"txkv/internal/kv"
	"txkv/internal/obs"
)

// snapshotDelta is the difference of two merged registry snapshots.
type snapshotDelta struct{ a, b obs.Snapshot }

func (d snapshotDelta) counter(name string) float64 {
	return float64(d.b.Counters[name] - d.a.Counters[name])
}

// mean is a histogram's mean over the interval, in microseconds (for
// duration histograms; value histograms read in thousandths).
func (d snapshotDelta) mean(name string) float64 {
	ha, hb := d.a.Histograms[name], d.b.Histograms[name]
	n := hb.Count - ha.Count
	if n <= 0 {
		return 0
	}
	return (hb.MeanUs*float64(hb.Count) - ha.MeanUs*float64(ha.Count)) / float64(n)
}

func (d snapshotDelta) count(name string) float64 {
	return float64(d.b.Histograms[name].Count - d.a.Histograms[name].Count)
}

// mergeSnapshots sums several registries' snapshots: counters and gauges
// add, histograms combine count-weighted means (quantiles are dropped).
func mergeSnapshots(snaps ...obs.Snapshot) obs.Snapshot {
	out := obs.Snapshot{Counters: map[string]int64{}, Gauges: map[string]int64{}, Histograms: map[string]obs.HistStat{}}
	for _, s := range snaps {
		for k, v := range s.Counters {
			out.Counters[k] += v
		}
		for k, v := range s.Gauges {
			out.Gauges[k] += v
		}
		for k, h := range s.Histograms {
			cur := out.Histograms[k]
			if n := cur.Count + h.Count; n > 0 {
				cur.MeanUs = (cur.MeanUs*float64(cur.Count) + h.MeanUs*float64(h.Count)) / float64(n)
			}
			cur.Count += h.Count
			out.Histograms[k] = cur
		}
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// durSum is a concurrent sum of timings.
type durSum struct{ ns, n atomic.Int64 }

func (s *durSum) add(d time.Duration) {
	s.ns.Add(int64(d))
	s.n.Add(1)
}

func (s *durSum) meanUs() float64 { return ratio(float64(s.ns.Load())/1e3, float64(s.n.Load())) }

// benchTimers are the benchmark's own timers around the public calls it
// makes, read over the traced half.
type benchTimers struct {
	updateBody  durSum // inside Update closures, every attempt
	updateTotal durSum // whole Update calls
	rpcCall     durSum // single-RPC remote calls (Txn.Get over TCP)
}

func (t *benchTimers) reset() {
	for _, s := range []*durSum{&t.updateBody, &t.updateTotal, &t.rpcCall} {
		s.ns.Store(0)
		s.n.Store(0)
	}
}

// layerInputs gathers what the per-layer metrics are computed from.
type layerInputs struct {
	d       snapshotDelta
	base    phase
	traced  phase
	cycles  []cycleResult
	lagMax  int64
	lateP99 float64 // microseconds
	// commitWait is set where read-write transactions commit with
	// CommitWait, whose span includes the flush to the region copies.
	commitWait bool
}

// layerMetrics appends every per-layer metric. A layer a workload does not
// exercise reads 0 (see README for which workload each metric targets).
func (r *runner) layerMetrics(in layerInputs) {
	d, timers := in.d, &r.timers
	ops := float64(in.traced.completed())
	commits := d.counter("txmgr.commits")

	// Per Update call: the closure's time summed over its attempts, and the
	// rest of the call.
	updates := float64(timers.updateTotal.n.Load())
	body := ratio(float64(timers.updateBody.ns.Load())/1e3, updates)
	r.add("cluster.update_body_us", body, "us")
	r.add("cluster.update_commit_us", ratio(float64(timers.updateTotal.ns.Load())/1e3, updates)-body, "us")
	r.add("cluster.retries_per_commit", ratio(d.counter("bench.update_retries"), d.counter("bench.update_commits")), "ratio")
	r.add("cluster.master_lookups_per_kop", 1000*ratio(d.counter("bench.master_lookups"), ops), "count/kop")

	r.add("txmgr.begin_wait_us", d.mean("commit.begin"), "us")
	r.add("txmgr.validate_us", d.mean("commit.validate")+d.mean("commit.ts_assign"), "us")
	r.add("txmgr.aborts_per_commit", ratio(d.counter("txmgr.aborts"), commits), "ratio")

	r.add("txlog.fsync_us", d.mean("txlog.sync"), "us")
	r.add("txlog.fsync_wait_us", d.mean("commit.fsync"), "us")
	r.add("txlog.commits_per_fsync", d.mean("txlog.sync_batch")*1e3, "ratio")
	r.add("txlog.bytes_per_commit", ratio(d.counter("txlog.appended_bytes"), commits), "B")

	r.add("kvstore.flush_us", d.mean("commit.flush"), "us")
	r.add("kvstore.apply_us", d.mean("commit.apply"), "us")
	r.add("kvstore.layout_us", d.mean("get.layout"), "us")
	r.add("kvstore.get_server_us", d.mean("get.server"), "us")
	r.add("kvstore.scan_page_us", d.mean("scan.page"), "us")
	hits, misses := d.counter("bench.cache_hits"), d.counter("bench.cache_misses")
	r.add("kvstore.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	r.add("kvstore.bloom_skip_ratio", ratio(d.counter("bench.bloom_negatives"), d.counter("bench.bloom_probes")), "ratio")

	call := timers.rpcCall.meanUs()
	exec := d.mean("bench.node_rpc_latency")
	wire := 0.0
	if call > 0 {
		wire = call - exec
	}
	r.add("rpc.client_call_us", call, "us")
	r.add("rpc.server_exec_us", exec, "us")
	r.add("rpc.wire_us", wire, "us")
	r.add("rpc.calls_per_op", ratio(d.counter("rpc.server.requests"), ops), "ratio")
	r.add("rpc.inflight_stalls", d.counter("rpc.server.inflight_stalls"), "count")

	r.add("replica.shipped_bytes_per_commit", ratio(d.counter("replica.shipped_bytes"), commits), "B")
	r.add("replica.batches_per_commit", ratio(d.counter("replica.shipped_batches"), commits), "ratio")
	r.add("replica.follower_read_ratio", ratio(d.counter("bench.follower_batches"), d.counter("bench.scan_batches")), "ratio")
	r.add("replica.lag_entries_max", float64(in.lagMax), "count")
	gap, detect, promote, repair, replayed := summarizeCycles(in.cycles)
	r.add("replica.failover_gap_ms", gap, "ms")
	r.add("replica.detect_ms", detect, "ms")
	r.add("replica.promote_ms", promote, "ms")
	r.add("replica.repair_s", repair, "s")
	r.add("core.writesets_replayed_per_failover", replayed, "count")

	r.add("watch.overflows", d.counter("watch.overflows"), "count")
	r.add("watch.delivered_per_commit", ratio(d.counter("watch.batches_delivered"), commits), "ratio")

	w := in.traced.win
	r.add("go.alloc_bytes_per_op", ratio(float64(w.alloc1-w.alloc0), ops), "B")
	r.add("go.gc_cycles_per_kop", 1000*ratio(float64(w.gc1-w.gc0), ops), "count/kop")

	r.add("bench.late_p99_us", in.lateP99, "us")
	// The offered rate is fixed, so tracing shows as CPU per op.
	base := in.base.cpuPerOp()
	r.add("trace.overhead_pct", 100*ratio(in.traced.cpuPerOp()-base, base), "%")
	r.add("trace.base_cpu_us_per_op", base, "us")
	total := d.mean("commit.total")
	// The commit span runs from BeginTxn to the acknowledgement: the
	// transaction body's reads fall between its stages, and with CommitWait
	// the flush to the region copies is inside it.
	names := []string{"commit.begin", "commit.buffer", "commit.validate", "commit.ts_assign", "commit.log_enqueue", "commit.fsync"}
	if in.commitWait {
		names = append(names, "commit.flush")
	}
	stages := 0.0
	for _, s := range names {
		if d.count(s) > 0 {
			stages += d.mean(s) * ratio(d.count(s), d.count("commit.total"))
		}
	}
	r.add("trace.commit_total_us", total, "us")
	unaccounted := 0.0
	if total > 0 {
		unaccounted = total - stages
	}
	r.add("trace.commit_unaccounted_us", unaccounted, "us")
}

// localSnapshot merges an in-process cluster's registry with the counters
// the workloads read from other public stats.
func localSnapshot(c *cluster.Cluster, cl *cluster.Client) obs.Snapshot {
	s := c.Obs().Snapshot()
	commits, retries := cl.UpdateStats()
	s.Counters["bench.update_commits"] = commits
	s.Counters["bench.update_retries"] = retries
	s.Counters["bench.master_lookups"] = s.Counters["client.master_lookups"]
	s.Counters["bench.cache_hits"] = s.Counters["blockcache.hits"]
	s.Counters["bench.cache_misses"] = s.Counters["blockcache.misses"]
	fs := c.FileStats()
	s.Counters["bench.bloom_probes"] = fs.BloomProbes
	s.Counters["bench.bloom_negatives"] = fs.BloomNegatives
	s.Counters["bench.scan_batches"] = s.Counters["client.scan_batches"]
	s.Counters["bench.follower_batches"] = s.Counters["replica.follower_reads"]
	return s
}

// loadTable writes rows lo..hi-1 of table (column col, value val(i)) in
// transactions of 500 rows each, and records them in l.
func loadTable(cl *cluster.Client, table, col string, lo, hi int, key, val func(int) string, l *ledger) error {
	ctx := context.Background()
	const chunk = 500
	for ; lo < hi; lo += chunk {
		end := min(lo+chunk, hi)
		cells := make([]cell, 0, end-lo)
		puts := make([]cluster.PutOp, 0, end-lo)
		for i := lo; i < end; i++ {
			c := cell{row: key(i), col: col, val: val(i)}
			cells = append(cells, c)
			puts = append(puts, cluster.PutOp{Row: kv.Key(c.row), Column: c.col, Value: []byte(c.val)})
		}
		ts, err := cl.Update(ctx, func(txn *cluster.Txn) error { return txn.PutBatch(ctx, table, puts) })
		if err != nil {
			return fmt.Errorf("load %s: %w", table, err)
		}
		l.ack(ts, cells, time.Now(), false)
	}
	return nil
}
