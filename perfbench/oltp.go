package main

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"time"

	"txkv/internal/cluster"
	"txkv/internal/kv"
	"txkv/internal/obs"
)

// oltp: transfers between accounts on an in-process two-server cluster with
// RF=1 and PersistDisk. See README.md.
const (
	oltpTable     = "acct"
	oltpAccounts  = 4096
	oltpRegions   = 8
	oltpInitial   = 1000
	oltpReadKeys  = 4  // accounts per GetBatch read
	oltpScanLen   = 32 // accounts per scan
	oltpWarmupOps = 1000
	oltpRate      = 500 // requests per second, all classes
	oltpWorkers   = 2
)

func acctKey(i int) string { return fmt.Sprintf("a%05d", i) }

func oltpConfig(dir string, trace bool) cluster.Config {
	return cluster.Config{
		Servers:           2,
		ReplicationFactor: 1,
		Persistence:       cluster.PersistDisk,
		DataDir:           dir,
		Tracing:           trace,
	}
}

// oltpDeploy is one set-up's deployment.
type oltpDeploy struct {
	dir string
	c   *cluster.Cluster
	cl  *cluster.Client
	led ledger
	w   *watcher
}

func (d *oltpDeploy) close() {
	if d.w != nil {
		d.w.stop()
	}
	if d.c != nil {
		d.c.Stop()
	}
	os.RemoveAll(d.dir)
}

func runOLTP(r *runner) error {
	d, err := timeSetup(r, func() (*oltpDeploy, error) { return oltpSetup(r) }, (*oltpDeploy).close)
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
		cs, late = oltpLoad(r, d, dur, &slot)
		return cs, nil
	}
	base, traced, err := r.measure(d.c.Tracer(), load, func(start bool) {
		if start {
			snap0 = localSnapshot(d.c, d.cl)
		} else {
			snap1 = localSnapshot(d.c, d.cl)
		}
	})
	if err != nil {
		return err
	}
	rss := peakRSSMiB()

	// Checks.
	latest := d.led.latest()
	r.check("oltp.balances_live", oltpCheckBalances(d.cl, latest))
	var watchLat watchSamples
	err = d.w.waitFor(d.led.maxTS(), 30*time.Second)
	if err == nil {
		watchLat, err = verifyWatch(d.w, &d.led)
	}
	r.check("oltp.watch_exactly_once", err)
	d.w.stop()
	d.w = nil
	if r.falsify == "ledger" {
		// Self-check: one altered ledger entry must fail the reopen audit.
		k := coord{acctKey(7), "bal"}
		latest[k] = strconv.Itoa(atoiOr(latest[k], 0) + 1)
	}
	r.check("oltp.reopen_matches_ledger", oltpReopenCheck(r, d, latest))

	if r.trace {
		r.layerMetrics(layerInputs{d: snapshotDelta{snap0, snap1}, base: base, traced: traced, lateP99: quantile(late, 0.99) / 1e3})
		return nil
	}
	r.e2e(base, rss, watchLat, late)
	return nil
}

func atoiOr(s string, def int) int {
	if v, err := strconv.Atoi(s); err == nil {
		return v
	}
	return def
}

func oltpSetup(r *runner) (*oltpDeploy, error) {
	dir, err := os.MkdirTemp(r.tmp, "oltp-")
	if err != nil {
		return nil, err
	}
	d := &oltpDeploy{dir: dir}
	if d.c, err = cluster.New(oltpConfig(dir, r.trace)); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	fail := func(err error) (*oltpDeploy, error) {
		d.close()
		return nil, err
	}
	var splits []kv.Key
	for i := 1; i < oltpRegions; i++ {
		splits = append(splits, kv.Key(acctKey(i*oltpAccounts/oltpRegions)))
	}
	if err := d.c.CreateTable(oltpTable, splits); err != nil {
		return fail(err)
	}
	if d.cl, err = d.c.NewClient("oltp"); err != nil {
		return fail(err)
	}
	initial := strconv.Itoa(oltpInitial)
	if err := loadTable(d.cl, oltpTable, "bal", 0, oltpAccounts, acctKey, func(int) string { return initial }, &d.led); err != nil {
		return fail(err)
	}
	// Warm-up: the same mix, untimed, so layouts are cached and the commit
	// pipeline is hot before the first timed op.
	ctx := context.Background()
	w := &worker{cs: classSet{}}
	for i := 0; i < oltpWarmupOps; i++ {
		rng := newSlotRand(r.seed, -1-int64(i))
		if err := oltpOp(ctx, r, d.cl, &rng, w, time.Now(), false); err != nil {
			return fail(fmt.Errorf("warm-up: %w", err))
		}
	}
	d.led.merge(&w.led)
	// Tail from the newest commit: the log may already be truncated below
	// the load, and every later commit must be delivered.
	if d.w, err = startWatcher(d.cl, oltpTable, d.led.maxTS()); err != nil {
		return fail(err)
	}
	return d, nil
}

// oltpLoad runs the open loop for dur: oltpRate requests per second from
// oltpWorkers goroutines sharing one client.
func oltpLoad(r *runner, d *oltpDeploy, dur time.Duration, first *int64) (classSet, []int64) {
	ctx := context.Background()
	workers := openLoop(dur, oltpRate, first, oltpWorkers, func(w *worker, slot int64, issued time.Time) error {
		rng := newSlotRand(r.seed, slot)
		return oltpOp(ctx, r, d.cl, &rng, w, issued, true)
	})
	return gather(r, workers, &d.led)
}

// oltpOp issues one operation of the mix, timed from start: 70% transfers,
// 20% GetBatch reads, 10% scans. A failed op is counted, and its error
// returned.
func oltpOp(ctx context.Context, r *runner, cl *cluster.Client, rng *slotRand, w *worker, start time.Time, timed bool) error {
	timers := &r.timers
	p := rng.Intn(100)
	switch {
	case p < 70:
		a := rng.Intn(oltpAccounts)
		b := rng.Intn(oltpAccounts - 1)
		if b >= a {
			b++
		}
		amt := 1 + rng.Intn(100)
		var cells []cell
		var submit time.Time
		t0 := time.Now()
		ts, err := cl.Update(ctx, func(txn *cluster.Txn) error {
			b0 := time.Now()
			defer func() { timers.updateBody.add(time.Since(b0)) }()
			keys := []kv.CellKey{{Row: kv.Key(acctKey(a)), Column: "bal"}, {Row: kv.Key(acctKey(b)), Column: "bal"}}
			vals, err := txn.GetBatch(ctx, oltpTable, keys)
			if err != nil {
				return err
			}
			if !vals[0].Found || !vals[1].Found {
				return wrong("transfer: account %s or %s missing", keys[0].Row, keys[1].Row)
			}
			va, err1 := strconv.Atoi(string(vals[0].Value))
			vb, err2 := strconv.Atoi(string(vals[1].Value))
			if err1 != nil || err2 != nil {
				return wrong("transfer: bad balance %q or %q", vals[0].Value, vals[1].Value)
			}
			cells = []cell{
				{row: acctKey(a), col: "bal", val: strconv.Itoa(va - amt)},
				{row: acctKey(b), col: "bal", val: strconv.Itoa(vb + amt)},
			}
			for _, c := range cells {
				if err := txn.Put(ctx, oltpTable, kv.Key(c.row), c.col, []byte(c.val)); err != nil {
					return err
				}
			}
			submit = time.Now()
			return nil
		})
		timers.updateTotal.add(time.Since(t0))
		if err != nil {
			if ts != 0 {
				w.led.unknown(cells...)
			}
			w.cs.get("commit").fail()
			return err
		}
		w.cs.get("commit").ok(time.Since(start))
		w.led.ack(ts, cells, submit, timed)
	case p < 90:
		keys := make([]kv.CellKey, 0, oltpReadKeys)
		for len(keys) < oltpReadKeys {
			keys = append(keys, kv.CellKey{Row: kv.Key(acctKey(rng.Intn(oltpAccounts))), Column: "bal"})
		}
		if r.falsifyOp(timed) {
			// Self-check: expect an account the load never wrote.
			keys[0].Row = kv.Key(acctKey(oltpAccounts))
		}
		err := cl.View(ctx, func(txn *cluster.Txn) error {
			vals, err := txn.GetBatch(ctx, oltpTable, keys)
			if err != nil {
				return err
			}
			for i, v := range vals {
				if !v.Found {
					return wrong("read: account %s missing", keys[i].Row)
				}
				if _, err := strconv.Atoi(string(v.Value)); err != nil {
					return wrong("read: account %s: bad balance %q", keys[i].Row, v.Value)
				}
			}
			return nil
		})
		if err != nil {
			w.cs.get("read").fail()
			return err
		}
		w.cs.get("read").ok(time.Since(start))
	default:
		from := rng.Intn(oltpAccounts - oltpScanLen + 1)
		err := cl.View(ctx, func(txn *cluster.Txn) error {
			return scanCheck(ctx, txn, oltpTable, from, oltpScanLen, acctKey, "bal", func(row string, v []byte) error {
				if _, err := strconv.Atoi(string(v)); err != nil {
					return wrong("scan: account %s: bad balance %q", row, v)
				}
				return nil
			})
		})
		if err != nil {
			w.cs.get("scan").fail()
			return err
		}
		w.cs.get("scan").ok(time.Since(start))
	}
	return nil
}

// scanCheck scans n rows of column col from key(start) and checks they are
// exactly key(start)..key(start+n-1), in order, each value passing valid.
func scanCheck(ctx context.Context, txn *cluster.Txn, table string, start, n int, key func(int) string, col string, valid func(string, []byte) error) error {
	sc := txn.Scan(ctx, table, kv.KeyRange{Start: kv.Key(key(start))}, cluster.ScanOptions{Limit: n, Columns: []string{col}})
	defer sc.Close()
	i := 0
	for sc.Next() {
		e := sc.KV()
		if i >= n || string(e.Row) != key(start+i) {
			return wrong("scan from %s: entry %d is %s", key(start), i, e.Row)
		}
		if err := valid(string(e.Row), e.Value); err != nil {
			return err
		}
		i++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if i != n {
		return wrong("scan from %s: %d rows, want %d", key(start), i, n)
	}
	return nil
}

// oltpCheckBalances reads every account in one snapshot: the total must be
// the loaded total, and each account must hold its ledger value.
func oltpCheckBalances(cl *cluster.Client, latest map[coord]string) error {
	ctx := context.Background()
	return cl.View(ctx, func(txn *cluster.Txn) error {
		return scanCheck(ctx, txn, oltpTable, 0, oltpAccounts, acctKey, "bal", func(row string, v []byte) error {
			if want := latest[coord{row, "bal"}]; string(v) != want {
				return wrong("account %s = %s, ledger says %s", row, v, want)
			}
			return nil
		})
	})
}

// oltpTotal sums every account in one snapshot.
func oltpTotal(cl *cluster.Client) (int, error) {
	ctx := context.Background()
	total := 0
	err := cl.View(ctx, func(txn *cluster.Txn) error {
		return scanCheck(ctx, txn, oltpTable, 0, oltpAccounts, acctKey, "bal", func(row string, v []byte) error {
			n, err := strconv.Atoi(string(v))
			total += n
			return err
		})
	})
	return total, err
}

// oltpReopenCheck stops the cluster, reopens its DataDir and compares every
// account with the ledger, and the total with the loaded total.
func oltpReopenCheck(r *runner, d *oltpDeploy, latest map[coord]string) error {
	total, err := oltpTotal(d.cl)
	if err != nil {
		return err
	}
	if want := oltpAccounts * oltpInitial; total != want {
		return fmt.Errorf("total balance %d before reopen, loaded %d", total, want)
	}
	d.c.Stop()
	d.c = nil
	c, err := cluster.Reopen(oltpConfig(d.dir, false))
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	d.c = c
	cl, err := c.NewClient("oltp-audit")
	if err != nil {
		return err
	}
	if err := oltpCheckBalances(cl, latest); err != nil {
		return fmt.Errorf("after reopen: %w", err)
	}
	if total, err = oltpTotal(cl); err != nil || total != oltpAccounts*oltpInitial {
		return fmt.Errorf("after reopen: total %d (%v)", total, err)
	}
	return nil
}
