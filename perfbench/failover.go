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

// failover-rf3: an open loop at a fixed rate on a four-server in-process
// cluster with RF=3 and follower reads, crashing the primary-heaviest server
// several times inside the window. See README.md.
const (
	foTable      = "fo"
	foRows       = 4000
	foRegions    = 8
	foValueBytes = 32
	foRate       = 600 // requests per second, all classes
	foScanLen    = 16
	foWarmupOps  = 500
	foCycles     = 6 // per window (a traced run spreads them over its two halves)
	foWorkers    = 2
	foCol        = "v"
)

func asInt64(v any) int64 {
	n, _ := v.(int64)
	return n
}

func foKey(i int) string { return fmt.Sprintf("f%06d", i) }

type foDeploy struct {
	c   *cluster.Cluster
	cl  *cluster.Client
	led ledger
	w   *watcher
}

func (d *foDeploy) close() {
	if d.w != nil {
		d.w.stop()
	}
	if d.c != nil {
		d.c.Stop()
	}
}

func runFailover(r *runner) error {
	d, err := timeSetup(r, func() (*foDeploy, error) { return foSetup(r) }, (*foDeploy).close)
	if err != nil {
		return err
	}
	defer d.close()

	cycles := foCycles
	if r.trace {
		cycles /= 2
	}
	if r.quick {
		cycles = 1
	}
	var (
		snap0, snap1 obs.Snapshot
		allCycles    []cycleResult
		late         []int64
		tracedLate   []int64
		lagMax       int64
		slot         int64 // first op index of the next phase
	)
	load := func(dur time.Duration) (classSet, error) {
		cs, cyc, lt, lag, err := foLoad(r, d, dur, cycles, &slot)
		allCycles = append(allCycles, cyc...)
		tracedLate = lt
		late = append(late, lt...)
		if lag > lagMax {
			lagMax = lag
		}
		return cs, err
	}
	base, traced, err := r.measure(d.c.Tracer(), load, func(start bool) {
		if start {
			lagMax = 0
			snap0 = localSnapshot(d.c, d.cl)
		} else {
			snap1 = localSnapshot(d.c, d.cl)
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
	r.check("failover.watch_exactly_once", err)
	latest := d.led.latest()
	if r.falsify == "ledger" {
		// Self-check: one altered ledger entry must fail the audit.
		k := coord{foKey(13), foCol}
		latest[k] = versionedValue(r.seed, foKey(13), 1<<30, foValueBytes)
	}
	r.check("failover.final_matches_ledger", foFinalCheck(r, d.cl, latest))
	fs := d.c.Master().FailoverStats()
	var statsErr error
	switch {
	case fs.Failovers != int64(len(allCycles)):
		statsErr = fmt.Errorf("master counted %d failovers for %d crashes", fs.Failovers, len(allCycles))
	case fs.RegionsSplit != 0:
		statsErr = fmt.Errorf("%d regions recovered by WAL split, not promotion", fs.RegionsSplit)
	}
	r.check("failover.one_promotion_per_crash", statsErr)
	r.notes["failover_stats"] = fs
	gap, _, _, _, _ := summarizeCycles(allCycles)
	r.notes["failover_gap_ms"] = gap
	r.notes["late_p99_us"] = quantile(late, 0.99) / 1e3

	if r.trace {
		r.layerMetrics(layerInputs{
			d: snapshotDelta{snap0, snap1}, base: base, traced: traced,
			cycles: allCycles, lagMax: lagMax, lateP99: quantile(tracedLate, 0.99) / 1e3, commitWait: true,
		})
		return nil
	}
	r.e2e(base, rss, watchLat, late)
	return nil
}

func foSetup(r *runner) (*foDeploy, error) {
	c, err := cluster.New(cluster.Config{
		Servers:                4,
		ReplicationFactor:      3,
		FollowerReads:          true,
		HeartbeatInterval:      50 * time.Millisecond,
		MasterHeartbeatTimeout: 200 * time.Millisecond,
		Tracing:                r.trace,
	})
	if err != nil {
		return nil, err
	}
	d := &foDeploy{c: c}
	fail := func(err error) (*foDeploy, error) {
		d.close()
		return nil, err
	}
	var splits []kv.Key
	for i := 1; i < foRegions; i++ {
		splits = append(splits, kv.Key(foKey(i*foRows/foRegions)))
	}
	if err := c.CreateTable(foTable, splits); err != nil {
		return fail(err)
	}
	if err := waitCopies(c, foTable, foRegions, 3, probeTimeout); err != nil {
		return fail(err)
	}
	if d.cl, err = c.NewClient("failover"); err != nil {
		return fail(err)
	}
	loadValue := func(i int) string { return versionedValue(r.seed, foKey(i), 0, foValueBytes) }
	if err := loadTable(d.cl, foTable, foCol, 0, foRows, foKey, loadValue, &d.led); err != nil {
		return fail(err)
	}
	ctx := context.Background()
	if err := c.WaitFlushed(d.led.maxTS(), 10*time.Second); err != nil {
		return fail(err)
	}
	w := &worker{cs: classSet{}}
	for i := 0; i < foWarmupOps; i++ {
		if _, err := foOpAt(ctx, r, d.cl, int64(-1-i), w, time.Now(), false); err != nil {
			return fail(fmt.Errorf("warm-up: %w", err))
		}
	}
	d.led.merge(&w.led)
	if d.w, err = startWatcher(d.cl, foTable, d.led.maxTS()); err != nil {
		return fail(err)
	}
	return d, nil
}

// foLoad runs the open loop for dur with n crash cycles spread evenly
// through it (see openLoop; ops retry while the program cannot serve them).
// It returns the classes, the cycles, how late each slot was issued, and
// the largest replication lag seen.
func foLoad(r *runner, d *foDeploy, dur time.Duration, n int, slot *int64) (classSet, []cycleResult, []int64, int64, error) {
	ctx := context.Background()
	start := time.Now()
	first := *slot
	var stalled atomic.Int64
	var workers []*worker
	loaded := make(chan struct{})
	go func() {
		defer close(loaded)
		workers = openLoop(dur, foRate, slot, foWorkers, func(w *worker, i int64, issued time.Time) error {
			retried, err := foOpAt(ctx, r, d.cl, i, w, issued, true)
			if retried {
				stalled.Add(1)
			}
			return err
		})
	}()

	// Crash cycles at evenly spaced offsets; replication lag sampled
	// meanwhile.
	var cycles []cycleResult
	var cycleErr error
	var lagMax int64
	stopLag := make(chan struct{})
	lagDone := make(chan struct{})
	go func() {
		defer close(lagDone)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopLag:
				return
			case <-t.C:
				for _, row := range d.c.ReplicaDebugRows() {
					if row.LagEntries > lagMax {
						lagMax = row.LagEntries
					}
				}
			}
		}
	}()
	var probes ledger
	for k := 0; k < n && cycleErr == nil; k++ {
		at := start.Add(time.Duration(float64(dur) * (float64(k) + 0.25) / float64(n)))
		time.Sleep(time.Until(at))
		res, err := crashCycle(d.c, d.cl, foTable, foKey(0), foRegions, 3, int(first)+k, &probes)
		if err != nil {
			cycleErr = fmt.Errorf("crash cycle %d: %w", k, err)
			break
		}
		r.logf("crash cycle %d: %d regions, gap %.1fms (detect %.1fms, promote %.1fms, repair %.3fs, replayed %d)",
			k, res.regions, float64(res.gap)/1e6, float64(res.detect)/1e6, float64(res.promote)/1e6, res.repair.Seconds(), res.replayed)
		cycles = append(cycles, res)
	}
	<-loaded
	close(stopLag)
	<-lagDone
	d.led.merge(&probes)
	cs, late := gather(r, workers, &d.led)
	// Requests that fell due while a region had no primary needed a retry.
	r.logf("failover-rf3: %d of %d requests retried", stalled.Load(), *slot-first)
	r.notes["stalled_requests"] = stalled.Load() + asInt64(r.notes["stalled_requests"])
	return cs, cycles, late, lagMax, cycleErr
}

// foOpAt issues op number i: 50% single-cell CommitWait writes, 25% point
// reads, 25% follower-routed scans. A request the program refuses or cannot
// serve (a region may be between primaries) is retried until it succeeds or
// probeTimeout passes; a wrong answer fails the op at once. The latency,
// retries included, is measured from start. It reports whether the op
// needed a retry. A timed op under the op self-check checks its reads
// against the payloads of another seed.
func foOpAt(ctx context.Context, r *runner, cl *cluster.Client, i int64, w *worker, start time.Time, timed bool) (bool, error) {
	seed := r.seed
	if r.falsifyOp(timed) {
		seed++
	}
	rng := newSlotRand(r.seed, i)
	kind := rng.Intn(4)
	row := foKey(rng.Intn(foRows))
	cs, l := w.cs, &w.led
	deadline := time.Now().Add(probeTimeout)
	var class string
	var attempt func() error
	switch kind {
	case 0, 1:
		class = "commit"
		// The value's version is the op's slot, so every write is unique
		// and its bytes follow from the seed.
		c := cell{row: row, col: foCol, val: versionedValue(r.seed, row, int(i&0x3fffffff), foValueBytes)}
		attempt = func() error {
			ts, submit, err := commitCells(ctx, cl, foTable, []cell{c})
			if err != nil {
				l.unknown(c)
				return err
			}
			l.ack(ts, []cell{c}, submit, timed)
			return nil
		}
	case 2:
		class = "read"
		attempt = func() error {
			return cl.View(ctx, func(txn *cluster.Txn) error {
				v, ok, err := txn.Get(ctx, foTable, kv.Key(row), foCol)
				if err != nil {
					return err
				}
				if !ok {
					return wrong("get: row %s missing", row)
				}
				_, err = checkVersioned(seed, row, v, foValueBytes)
				return err
			})
		}
	default:
		class = "scan"
		from := rng.Intn(foRows - foScanLen + 1)
		attempt = func() error {
			return cl.View(ctx, func(txn *cluster.Txn) error {
				return scanCheck(ctx, txn, foTable, from, foScanLen, foKey, foCol, func(row string, v []byte) error {
					_, err := checkVersioned(seed, row, v, foValueBytes)
					return err
				})
			})
		}
	}
	var err error
	for tries := 0; ; tries++ {
		if err = attempt(); err == nil {
			cs.get(class).ok(time.Since(start))
			return tries > 0, nil
		}
		if isWrong(err) || time.Now().After(deadline) {
			cs.get(class).fail()
			return tries > 0, fmt.Errorf("%s %s: %w", class, row, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// foFinalCheck reads every row in one snapshot: exactly the loaded rows,
// each holding the value of its highest-timestamp acknowledged write.
func foFinalCheck(r *runner, cl *cluster.Client, latest map[coord]string) error {
	ctx := context.Background()
	return cl.View(ctx, func(txn *cluster.Txn) error {
		return scanCheck(ctx, txn, foTable, 0, foRows, foKey, foCol, func(row string, v []byte) error {
			if want := latest[coord{row, foCol}]; string(v) != want {
				return wrong("row %s = %.40q, ledger says %.40q", row, v, want)
			}
			return nil
		})
	})
}
