package main

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"txkv/internal/cluster"
	"txkv/internal/kv"
	"txkv/internal/kvstore"
)

// probeTimeout bounds how long a crashed server's regions may stay without
// an acknowledged commit before the run fails.
const probeTimeout = 20 * time.Second

// cycleResult is one crash cycle's timings.
type cycleResult struct {
	gap      time.Duration // crash -> last victim region's first acked commit
	detect   time.Duration // crash -> master starts the failover
	promote  time.Duration // master's own failover window
	repair   time.Duration // crash -> replacement added and every region at full strength
	replayed int           // write-sets the recovery gate replayed
	regions  int
}

// probeRow is the row a region's probe writes: the region's first row.
func probeRow(r kvstore.RegionInfo, firstRow string) string {
	if r.Range.Start == "" {
		return firstRow
	}
	return string(r.Range.Start)
}

// crashCycle crashes the server of c leading the most regions of table,
// then commits (CommitWait) a probe cell into each of its regions, retrying
// until each is acknowledged, and finally adds a server and waits until each
// of the table's regions is back at rf copies. Probe writes land in column
// "probe" and are recorded in l.
func crashCycle(c *cluster.Cluster, cl *cluster.Client, table, firstRow string, regionCount, rf, n int, l *ledger) (cycleResult, error) {
	var res cycleResult
	victim, regions, err := mostRegions(primaries(liveServers(c), table))
	if err != nil {
		return res, err
	}
	res.regions = len(regions)
	failovers := func() kvstore.FailoverStats { return c.Master().FailoverStats() }
	replayed := func() int { return c.RecoveryManager().StatsSnapshot().WriteSetsReplayed }
	before := failovers()
	replayed0 := replayed()

	// Poll the master's failover counter from just before the crash so the
	// detection time is read at millisecond resolution.
	stopPoll := make(chan struct{})
	doneAt := make(chan time.Time, 1)
	go func() {
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopPoll:
				doneAt <- time.Time{}
				return
			case <-t.C:
				if failovers().Failovers > before.Failovers {
					doneAt <- time.Now()
					return
				}
			}
		}
	}()

	crashAt := time.Now()
	if err := c.CrashServer(victim); err != nil {
		close(stopPoll)
		<-doneAt
		return res, fmt.Errorf("crash %s: %w", victim, err)
	}
	// Report the crash to the master at once, as a process supervisor
	// would. Heartbeat detection calls the same failure handling, but only
	// after MasterHeartbeatTimeout, a configured constant whose ticker
	// quantization would otherwise dominate every latency tail of the run.
	failDone := make(chan struct{})
	go func() {
		defer close(failDone)
		c.Master().FailServer(victim)
	}()
	defer func() { <-failDone }()
	acks := make([]time.Time, len(regions))
	errs := make([]error, len(regions))
	logs := make([]ledger, len(regions))
	var wg sync.WaitGroup
	for i, r := range regions {
		wg.Add(1)
		go func(i int, row string) {
			defer wg.Done()
			acks[i], errs[i] = probe(cl, table, row, fmt.Sprintf("c%d-%d", n, i), &logs[i])
		}(i, probeRow(r, firstRow))
	}
	wg.Wait()
	for i := range logs {
		l.merge(&logs[i])
	}
	var last time.Time
	for i, e := range errs {
		if e != nil {
			close(stopPoll)
			<-doneAt
			return res, fmt.Errorf("region %s after crashing %s: %w", regions[i].ID, victim, e)
		}
		if acks[i].After(last) {
			last = acks[i]
		}
	}
	res.gap = last.Sub(crashAt)

	// The failover is counted once fully processed; wait for it.
	var done time.Time
	select {
	case done = <-doneAt:
	case <-time.After(probeTimeout):
		close(stopPoll)
		<-doneAt
		return res, fmt.Errorf("master never finished the failover of %s", victim)
	}
	after := failovers()
	res.promote = after.LastFailover
	res.detect = done.Sub(crashAt) - after.LastFailover
	res.replayed = replayed() - replayed0

	if _, err := c.AddServer(); err != nil {
		return res, fmt.Errorf("replace %s: %w", victim, err)
	}
	if err := waitCopies(c, table, regionCount, rf, probeTimeout); err != nil {
		return res, fmt.Errorf("replace %s: %w", victim, err)
	}
	res.repair = time.Since(crashAt)
	return res, nil
}

// probe commits row/probe=tag-<attempt> with CommitWait until one attempt is
// acknowledged, and returns the acknowledgement time.
func probe(cl *cluster.Client, table, row, tag string, l *ledger) (time.Time, error) {
	ctx := context.Background()
	deadline := time.Now().Add(probeTimeout)
	var lastErr error
	for attempt := 0; time.Now().Before(deadline); attempt++ {
		c := cell{row: row, col: "probe", val: tag + "-" + strconv.Itoa(attempt)}
		ts, submit, err := commitCells(ctx, cl, table, []cell{c})
		if err == nil {
			l.ack(ts, []cell{c}, submit, false)
			return time.Now(), nil
		}
		l.unknown(c)
		lastErr = err
		time.Sleep(2 * time.Millisecond)
	}
	return time.Time{}, fmt.Errorf("no probe commit acknowledged in %v: %w", probeTimeout, lastErr)
}

// commitCells writes cells in one transaction and waits for its apply. It
// also returns when the commit was submitted.
func commitCells(ctx context.Context, cl *cluster.Client, table string, cells []cell) (kv.Timestamp, time.Time, error) {
	txn, err := cl.BeginTxn(cluster.TxnOptions{})
	if err != nil {
		return 0, time.Time{}, err
	}
	for _, c := range cells {
		if err := txn.Put(ctx, table, kv.Key(c.row), c.col, []byte(c.val)); err != nil {
			txn.Abort()
			return 0, time.Time{}, err
		}
	}
	submit := time.Now()
	ts, err := txn.CommitWait(ctx)
	return ts, submit, err
}

// summarizeCycles folds crash cycles into medians.
func summarizeCycles(cs []cycleResult) (gapMS, detectMS, promoteMS, repairS, replayedPer float64) {
	var gap, det, pro, rep, rpl []float64
	for _, c := range cs {
		gap = append(gap, float64(c.gap)/1e6)
		det = append(det, float64(c.detect)/1e6)
		pro = append(pro, float64(c.promote)/1e6)
		rep = append(rep, c.repair.Seconds())
		rpl = append(rpl, float64(c.replayed))
	}
	return medianFloat(gap), medianFloat(det), medianFloat(pro), medianFloat(rep), medianFloat(rpl)
}

// mostRegions picks, among candidate servers, the one holding the most
// regions (ties broken by ID so the choice is reproducible).
func mostRegions(held map[string][]kvstore.RegionInfo) (string, []kvstore.RegionInfo, error) {
	ids := make([]string, 0, len(held))
	for id := range held {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	best := ""
	for _, id := range ids {
		if best == "" || len(held[id]) > len(held[best]) {
			best = id
		}
	}
	if best == "" || len(held[best]) == 0 {
		return "", nil, fmt.Errorf("no live server leads a region")
	}
	return best, held[best], nil
}

// liveServers maps the IDs of c's servers that have not crashed to them.
func liveServers(c *cluster.Cluster) map[string]*kvstore.RegionServer {
	out := map[string]*kvstore.RegionServer{}
	for _, id := range c.ServerIDs() {
		if srv, ok := c.Server(id); ok && !srv.Crashed() {
			out[id] = srv
		}
	}
	return out
}

// primaries maps each server to the online primary copies of table's
// regions it holds.
func primaries(servers map[string]*kvstore.RegionServer, table string) map[string][]kvstore.RegionInfo {
	held := map[string][]kvstore.RegionInfo{}
	for id, srv := range servers {
		held[id] = nil
		for _, st := range srv.ReplicaStates() {
			if st.Info.Table == table && st.Role == kvstore.RolePrimary && st.Online {
				held[id] = append(held[id], st.Info)
			}
		}
	}
	return held
}

// copies counts, per region of table, the copies over the servers: the
// online primary and the followers.
func copies(servers map[string]*kvstore.RegionServer, table string) map[string]int {
	n := map[string]int{}
	for _, srv := range servers {
		for _, st := range srv.ReplicaStates() {
			serving := st.Role == kvstore.RolePrimary && st.Online
			if st.Info.Table == table && (serving || st.Role == kvstore.RoleFollower) {
				n[st.Info.ID]++
			}
		}
	}
	return n
}

// waitCopies waits until every one of table's regions has want copies on
// c's live servers.
func waitCopies(c *cluster.Cluster, table string, regions, want int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		n := copies(liveServers(c), table)
		full := len(n) == regions
		for _, c := range n {
			full = full && c >= want
		}
		if full {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("regions not back to %d copies after %v: %v", want, timeout, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
