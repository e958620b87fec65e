package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"txkv/internal/cluster"
	"txkv/internal/kv"
	"txkv/internal/kvstore"
	"txkv/internal/obs"
	"txkv/internal/rpc"
)

// reads-tcp: a master-only cluster serving the wire protocol, two region
// servers on loopback TCP, and one remote handle shared by two clients.
// See README.md.
const (
	rtTable      = "rows"
	rtRows       = 20000
	rtRegions    = 8
	rtValueBytes = 200
	rtCacheBytes = 512 << 10 // per region server, below its store-file bytes
	rtScanLen    = 16
	rtZipfS      = 1.1
	rtWarmupOps  = 2000
	rtRate       = 600 // requests per second, all classes
	rtWorkers    = 2
	rtCol        = "v"
)

func rowKey(i int) string { return fmt.Sprintf("r%08d", i) }

// rtDeploy is one set-up's deployment.
type rtDeploy struct {
	c       *cluster.Cluster
	addr    string
	nodeReg *obs.Registry
	sobs    *kvstore.ServerObs
	files   *kvstore.FileStats
	nodes   []*rpc.RegionNode
	remote  *cluster.Remote
	cl      *cluster.Client
	led     ledger
	w       *watcher
}

func (d *rtDeploy) startNode() error {
	n, err := rpc.StartRegionNode(rpc.RegionNodeConfig{
		ID:         fmt.Sprintf("rs-%d", len(d.nodes)),
		MasterAddr: d.addr,
		Server: kvstore.ServerConfig{
			BlockCacheBytes:    rtCacheBytes,
			MemstoreFlushBytes: 64 << 20, // flushes happen only where set-up asks
			FileStats:          d.files,
			Obs:                d.sobs,
		},
		Registry: d.nodeReg,
	})
	if err != nil {
		return err
	}
	d.nodes = append(d.nodes, n)
	return nil
}

func (d *rtDeploy) close() {
	if d.w != nil {
		d.w.stop()
	}
	if d.cl != nil {
		d.cl.Stop()
	}
	if d.remote != nil {
		d.remote.Close()
	}
	for _, n := range d.nodes {
		n.Stop()
	}
	if d.c != nil {
		d.c.Stop()
	}
}

// rtZipf skews row popularity; hotRow scatters the ranks (7919 is coprime
// with rtRows) so the hottest rows span every region.
var rtZipf = newZipf(rtRows, rtZipfS)

func hotRow(rng *slotRand) int { return rtZipf.rank(rng) * 7919 % rtRows }

func runReadsTCP(r *runner) error {
	d, err := timeSetup(r, func() (*rtDeploy, error) { return rtSetup(r) }, (*rtDeploy).close)
	if err != nil {
		return err
	}
	defer d.close()

	var (
		snap0, snap1 obs.Snapshot
		slot         int64
		late         []int64
	)
	load := func(dur time.Duration) (classSet, error) {
		var cs classSet
		cs, late = rtLoad(r, d, dur, &slot)
		return cs, nil
	}
	base, traced, err := r.measure(d.c.Tracer(), load, func(start bool) {
		if start {
			snap0 = rtSnapshot(d)
		} else {
			snap1 = rtSnapshot(d)
		}
	})
	if err != nil {
		return err
	}
	rss := peakRSSMiB()

	var watchLat watchSamples
	err = d.w.waitFor(d.led.maxTS(), 30*time.Second)
	if err == nil {
		watchLat, err = verifyWatch(d.w, &d.led)
	}
	r.check("reads.watch_exactly_once", err)
	latest := d.led.latest()
	r.check("reads.final_matches_ledger", rtFinalCheck(r, d.cl, latest))

	if r.trace {
		r.layerMetrics(layerInputs{d: snapshotDelta{snap0, snap1}, base: base, traced: traced, lateP99: quantile(late, 0.99) / 1e3})
		return nil
	}
	r.e2e(base, rss, watchLat, late)
	return nil
}

func rtSetup(r *runner) (*rtDeploy, error) {
	c, err := cluster.New(cluster.Config{
		Servers: -1,
		Tracing: r.trace,
	})
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	d := &rtDeploy{
		c:       c,
		nodeReg: reg,
		files:   &kvstore.FileStats{},
		sobs: &kvstore.ServerObs{
			AppliedWriteSets: reg.Counter("server.applied_writesets"),
			AppliedCells:     reg.Counter("server.applied_cells"),
			ApplyLatency:     reg.Histogram("commit.apply"),
			ScanPages:        reg.Counter("server.scan_pages"),
			ScanPageLatency:  reg.Histogram("scan.page"),
		},
	}
	fail := func(err error) (*rtDeploy, error) {
		d.close()
		return nil, err
	}
	if d.addr, err = c.ServeRPC("127.0.0.1:0"); err != nil {
		return fail(err)
	}
	for i := 0; i < 2; i++ {
		if err := d.startNode(); err != nil {
			return fail(err)
		}
	}
	if d.remote, err = cluster.ConnectRemote(d.addr); err != nil {
		return fail(err)
	}
	var splits []kv.Key
	for i := 1; i < rtRegions; i++ {
		splits = append(splits, kv.Key(rowKey(i*rtRows/rtRegions)))
	}
	if err := d.remote.CreateTable(rtTable, splits); err != nil {
		return fail(err)
	}
	if d.cl, err = d.remote.NewClient("reads"); err != nil {
		return fail(err)
	}

	// Load over the wire in two halves, flushing each to store files, then
	// compact: reads start from store files behind a cache smaller than
	// them.
	loadValue := func(i int) string { return versionedValue(r.seed, rowKey(i), 0, rtValueBytes) }
	for half := 0; half < 2; half++ {
		if err := loadTable(d.cl, rtTable, rtCol, half*rtRows/2, (half+1)*rtRows/2, rowKey, loadValue, &d.led); err != nil {
			return fail(err)
		}
		if err := d.c.WaitFlushed(d.led.maxTS(), 10*time.Second); err != nil {
			return fail(err)
		}
		for _, n := range d.nodes {
			if err := n.Server().FlushAll(); err != nil {
				return fail(fmt.Errorf("flush: %w", err))
			}
		}
	}
	for _, n := range d.nodes {
		if err := n.Server().CompactAll(); err != nil {
			return fail(fmt.Errorf("compact: %w", err))
		}
	}
	ctx := context.Background()
	w := &worker{cs: classSet{}}
	for i := 0; i < rtWarmupOps; i++ {
		rng := newSlotRand(r.seed, -1-int64(i))
		if err := rtOp(ctx, r, d.cl, &rng, w, time.Now(), false); err != nil {
			return fail(fmt.Errorf("warm-up: %w", err))
		}
	}
	d.led.merge(&w.led)
	if d.w, err = startWatcher(d.cl, rtTable, d.led.maxTS()); err != nil {
		return fail(err)
	}
	return d, nil
}

// rtLoad runs the open loop for dur: rtRate requests per second from
// rtWorkers goroutines sharing one remote client.
func rtLoad(r *runner, d *rtDeploy, dur time.Duration, first *int64) (classSet, []int64) {
	ctx := context.Background()
	workers := openLoop(dur, rtRate, first, rtWorkers, func(w *worker, slot int64, issued time.Time) error {
		rng := newSlotRand(r.seed, slot)
		return rtOp(ctx, r, d.cl, &rng, w, issued, true)
	})
	return gather(r, workers, &d.led)
}

// rtOp issues one operation of the mix, timed from start: 80% point gets
// (one in ten aimed at an absent row), 10% scans, 10% single-row
// read-modify-write updates. A timed op under the op self-check checks its
// reads against the payloads of another seed.
func rtOp(ctx context.Context, r *runner, cl *cluster.Client, rng *slotRand, w *worker, start time.Time, timed bool) error {
	timers := &r.timers
	seed := r.seed
	if r.falsifyOp(timed) {
		seed++
	}
	p := rng.Intn(100)
	switch {
	case p < 80:
		absent := rng.Intn(10) == 0
		row := rowKey(hotRow(rng))
		if absent {
			row += "~" // sorts between two loaded rows; never written
		}
		err := cl.View(ctx, func(txn *cluster.Txn) error {
			c0 := time.Now()
			v, ok, err := txn.Get(ctx, rtTable, kv.Key(row), rtCol)
			timers.rpcCall.add(time.Since(c0))
			if err != nil {
				return err
			}
			if absent {
				if ok {
					return wrong("get: absent row %s read as %.40q", row, v)
				}
				return nil
			}
			if !ok {
				return wrong("get: row %s missing", row)
			}
			_, err = checkVersioned(seed, row, v, rtValueBytes)
			return err
		})
		if err != nil {
			w.cs.get("read").fail()
			return err
		}
		w.cs.get("read").ok(time.Since(start))
	case p < 90:
		from := rng.Intn(rtRows - rtScanLen + 1)
		err := cl.View(ctx, func(txn *cluster.Txn) error {
			return scanCheck(ctx, txn, rtTable, from, rtScanLen, rowKey, rtCol, func(row string, v []byte) error {
				_, err := checkVersioned(seed, row, v, rtValueBytes)
				return err
			})
		})
		if err != nil {
			w.cs.get("scan").fail()
			return err
		}
		w.cs.get("scan").ok(time.Since(start))
	default:
		row := rowKey(hotRow(rng))
		var c cell
		var submit time.Time
		t0 := time.Now()
		ts, err := cl.Update(ctx, func(txn *cluster.Txn) error {
			b0 := time.Now()
			defer func() { timers.updateBody.add(time.Since(b0)) }()
			v, ok, err := txn.Get(ctx, rtTable, kv.Key(row), rtCol)
			if err != nil {
				return err
			}
			if !ok {
				return wrong("update: row %s missing", row)
			}
			ver, err := checkVersioned(seed, row, v, rtValueBytes)
			if err != nil {
				return err
			}
			c = cell{row: row, col: rtCol, val: versionedValue(r.seed, row, ver+1, rtValueBytes)}
			if err := txn.Put(ctx, rtTable, kv.Key(row), rtCol, []byte(c.val)); err != nil {
				return err
			}
			submit = time.Now()
			return nil
		})
		timers.updateTotal.add(time.Since(t0))
		if err != nil {
			if ts != 0 {
				w.led.unknown(c)
			}
			w.cs.get("commit").fail()
			return err
		}
		w.cs.get("commit").ok(time.Since(start))
		w.led.ack(ts, []cell{c}, submit, timed)
	}
	return nil
}

// rtFinalCheck scans the whole table in one snapshot: exactly the loaded
// rows, in order, each holding its ledger value.
func rtFinalCheck(r *runner, cl *cluster.Client, latest map[coord]string) error {
	if r.falsify == "ledger" {
		// Self-check: one wrong load value must fail the audit.
		k := coord{rowKey(11), rtCol}
		if strings.Contains(latest[k], "|0|") {
			latest[k] = versionedValue(r.seed+1, rowKey(11), 0, rtValueBytes)
		} else {
			latest[k] = versionedValue(r.seed, rowKey(11), 0, rtValueBytes)
		}
	}
	ctx := context.Background()
	return cl.View(ctx, func(txn *cluster.Txn) error {
		return scanCheck(ctx, txn, rtTable, 0, rtRows, rowKey, rtCol, func(row string, v []byte) error {
			if want := latest[coord{row, rtCol}]; string(v) != want {
				return wrong("row %s = %.40q, ledger says %.40q", row, v, want)
			}
			return nil
		})
	})
}

// rtSnapshot merges the master's registry, the region nodes' registry and
// the counters read from other public stats.
func rtSnapshot(d *rtDeploy) obs.Snapshot {
	ns := d.nodeReg.Snapshot()
	s := mergeSnapshots(d.c.Obs().Snapshot(), ns)
	s.Histograms["bench.node_rpc_latency"] = ns.Histograms["rpc.server.latency"]
	commits, retries := d.cl.UpdateStats()
	s.Counters["bench.update_commits"] = commits
	s.Counters["bench.update_retries"] = retries
	var lookups int64
	for k, v := range s.Counters {
		if strings.HasPrefix(k, "rpc.server.req.m.locate") {
			lookups += v
		}
	}
	s.Counters["bench.master_lookups"] = lookups
	var hits, misses int64
	for _, n := range d.nodes {
		h, m := n.Server().Cache().Stats()
		hits += h
		misses += m
	}
	s.Counters["bench.cache_hits"] = hits
	s.Counters["bench.cache_misses"] = misses
	fs := d.files.Snapshot()
	s.Counters["bench.bloom_probes"] = fs.BloomProbes
	s.Counters["bench.bloom_negatives"] = fs.BloomNegatives
	return s
}
