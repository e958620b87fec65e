package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"strconv"
	"sync"
	"time"

	"txkv/internal/cluster"
	"txkv/internal/kv"
)

// A versioned value is fully determined by (seed, row, version):
//
//	row|version|payload|crc32(row|version|payload)
//
// so any read can be checked against its own row key and checksum, and
// against the payload the generator must have written.
func versionedValue(seed int64, row string, ver int, size int) string {
	b := make([]byte, 0, len(row)+size+24)
	b = append(b, row...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(ver), 10)
	b = append(b, '|')
	pl := newPayload(seed, row, ver)
	for i := 0; i < size; i++ {
		b = append(b, pl.next())
	}
	return string(appendCRC(b))
}

const hexDigits = "0123456789abcdef"

// payload is the digit stream of (seed, row, version): FNV-1a over the row,
// mixed with the seed and version, seeds a splitmix64 sequence whose words
// give 16 hex digits each.
type payload struct {
	x, word uint64
	left    int
}

func newPayload(seed int64, row string, ver int) payload {
	h := uint64(14695981039346656037)
	for i := 0; i < len(row); i++ {
		h = (h ^ uint64(row[i])) * 1099511628211
	}
	return payload{x: splitmix64(h ^ splitmix64(uint64(seed)) ^ uint64(ver)<<1)}
}

func (p *payload) next() byte {
	if p.left == 0 {
		p.x += 0x9e3779b97f4a7c15
		p.word, p.left = splitmix64(p.x), 16
	}
	d := hexDigits[p.word&15]
	p.word >>= 4
	p.left--
	return d
}

// appendCRC appends "|" and the CRC-32 of body as eight hex digits.
func appendCRC(body []byte) []byte {
	crc := crc32.ChecksumIEEE(body)
	body = append(body, '|')
	for shift := 28; shift >= 0; shift -= 4 {
		body = append(body, hexDigits[crc>>uint(shift)&15])
	}
	return body
}

// badOutput marks an error as a wrong answer from the program (a missing or
// unexpected row, a value that does not check out), as opposed to a request
// the program refused or could not serve. A wrong answer is never retried.
type badOutput struct{ error }

func wrong(format string, args ...any) error { return badOutput{fmt.Errorf(format, args...)} }

func isWrong(err error) bool {
	var b badOutput
	return errors.As(err, &b)
}

// checkVersioned verifies a value read from row: it names the row, its
// checksum holds, and its payload is the one seed gives its version. It
// returns the version.
func checkVersioned(seed int64, row string, val []byte, size int) (int, error) {
	n := len(val)
	if n < len(row)+12 || val[n-9] != '|' {
		return 0, wrong("row %s: malformed value %.40q", row, val)
	}
	body := val[:n-9]
	crc := crc32.ChecksumIEEE(body)
	for k, shift := n-8, 28; shift >= 0; k, shift = k+1, shift-4 {
		if val[k] != hexDigits[crc>>uint(shift)&15] {
			return 0, wrong("row %s: checksum %s does not hold", row, val[n-8:])
		}
	}
	if string(body[:len(row)]) != row || body[len(row)] != '|' {
		return 0, wrong("row %s: value %.40q belongs to another row", row, val)
	}
	rest := body[len(row)+1:]
	bar := bytes.IndexByte(rest, '|')
	ver := -1
	if bar > 0 {
		if v, err := strconv.Atoi(string(rest[:bar])); err == nil {
			ver = v
		}
	}
	if ver < 0 {
		return 0, wrong("row %s: bad version in %.40q", row, val)
	}
	p := rest[bar+1:]
	if len(p) != size {
		return 0, wrong("row %s version %d: payload of %d bytes, want %d", row, ver, len(p), size)
	}
	pl := newPayload(seed, row, ver)
	for i := range p {
		if p[i] != pl.next() {
			return 0, wrong("row %s version %d: payload differs from the seed's", row, ver)
		}
	}
	return ver, nil
}

// cell is one written cell as the generator and the watcher see it.
type cell struct{ row, col, val string }

// coord is a cell's coordinate.
type coord struct{ row, col string }

// hashCell mixes a cell into 64 bits; a commit's hash is the sum of its
// cells' hashes, so it does not depend on their order.
func hashCell(c cell) uint64 {
	h := fnv.New64a()
	h.Write([]byte(c.row))
	h.Write([]byte{0})
	h.Write([]byte(c.col))
	h.Write([]byte{0})
	h.Write([]byte(c.val))
	return splitmix64(h.Sum64())
}

// splitmix64 is a 64-bit mixing function.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// commitRec is one acknowledged commit in the generator's ledger, kept
// compact (a hash of its cells) so the ledger's memory stays small beside
// the program's.
type commitRec struct {
	ts     kv.Timestamp
	hash   uint64
	cells  int32
	timed  bool  // submitted inside the measured window
	submit int64 // mono time the commit was submitted
}

type tsVal struct {
	ts  kv.Timestamp
	val string
}

// ledger is one worker's record of acknowledged commits, of the latest
// acknowledged value per cell, and of writes whose outcome is unknown (the
// commit call failed, but the write-set may still be durable in the
// recovery log).
type ledger struct {
	acked []commitRec
	last  map[coord]tsVal
	maybe map[uint64]bool
}

// ack records an acknowledged commit of cells at ts.
func (l *ledger) ack(ts kv.Timestamp, cells []cell, submit time.Time, timed bool) {
	rec := commitRec{ts: ts, cells: int32(len(cells)), timed: timed, submit: mono(submit)}
	if l.last == nil {
		l.last = map[coord]tsVal{}
	}
	for _, c := range cells {
		rec.hash += hashCell(c)
		k := coord{c.row, c.col}
		if cur, ok := l.last[k]; !ok || ts > cur.ts {
			l.last[k] = tsVal{ts, c.val}
		}
	}
	l.acked = append(l.acked, rec)
}

// unknown records writes whose commit call failed.
func (l *ledger) unknown(cells ...cell) {
	if l.maybe == nil {
		l.maybe = map[uint64]bool{}
	}
	for _, c := range cells {
		l.maybe[hashCell(c)] = true
	}
}

func (l *ledger) merge(o *ledger) {
	l.acked = append(l.acked, o.acked...)
	if l.last == nil {
		l.last = map[coord]tsVal{}
	}
	for k, v := range o.last {
		if cur, ok := l.last[k]; !ok || v.ts > cur.ts {
			l.last[k] = v
		}
	}
	if len(o.maybe) > 0 && l.maybe == nil {
		l.maybe = map[uint64]bool{}
	}
	for h := range o.maybe {
		l.maybe[h] = true
	}
}

func (l *ledger) maxTS() kv.Timestamp {
	var m kv.Timestamp
	for _, c := range l.acked {
		if c.ts > m {
			m = c.ts
		}
	}
	return m
}

// latest returns, per cell coordinate, the value of the highest-timestamp
// acknowledged write.
func (l *ledger) latest() map[coord]string {
	out := make(map[coord]string, len(l.last))
	for k, v := range l.last {
		out[k] = v.val
	}
	return out
}

// delivered is one commit's events as the watcher received them.
type delivered struct {
	ts    kv.Timestamp
	recv  int64 // mono
	hash  uint64
	cells []uint64
}

// watcher tails a table and keeps every delivered commit.
type watcher struct {
	stream *cluster.WatchStream
	cancel context.CancelFunc
	done   chan struct{}

	mu   sync.Mutex
	got  []delivered
	pos  kv.Timestamp
	err  error
	from kv.Timestamp
}

func startWatcher(cl *cluster.Client, table string, from kv.Timestamp) (*watcher, error) {
	ctx, cancel := context.WithCancel(context.Background())
	ws, err := cl.Watch(ctx, table, kv.KeyRange{}, from)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("watch %s: %w", table, err)
	}
	w := &watcher{stream: ws, cancel: cancel, done: make(chan struct{}), from: from, pos: from}
	go w.loop(ctx)
	return w, nil
}

func (w *watcher) loop(ctx context.Context) {
	defer close(w.done)
	for {
		b, err := w.stream.NextBatch(ctx)
		if err != nil {
			if ctx.Err() == nil {
				w.mu.Lock()
				w.err = err
				w.mu.Unlock()
			}
			return
		}
		var d delivered
		if len(b.Events) > 0 {
			d = delivered{ts: b.CommitTS, recv: mono(time.Now()), cells: make([]uint64, len(b.Events))}
			for i, e := range b.Events {
				d.cells[i] = hashCell(cell{row: string(e.Key), col: e.Column, val: string(e.Value)})
				d.hash += d.cells[i]
			}
		}
		w.mu.Lock()
		if len(b.Events) > 0 {
			w.got = append(w.got, d)
		}
		w.pos = b.Pos
		w.mu.Unlock()
	}
}

// waitFor blocks until the stream's position covers ts.
func (w *watcher) waitFor(ts kv.Timestamp, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		w.mu.Lock()
		pos, err := w.pos, w.err
		w.mu.Unlock()
		if err != nil {
			return fmt.Errorf("watch stream: %w", err)
		}
		if pos >= ts {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("watch stream at %d, not at %d after %v", pos, ts, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

func (w *watcher) stop() {
	w.cancel()
	<-w.done
	w.stream.Close()
}

// watchSamples are delivery latencies of commits submitted in the window,
// with their submission times (mono) for slicing.
type watchSamples struct{ lat, at []int64 }

// verifyWatch checks the watcher's deliveries against the ledger: commits
// arrive in strictly increasing timestamp order; every acknowledged commit
// after the stream's start arrives exactly once with exactly its cells; a
// delivered commit the ledger does not know is allowed only if each of its
// cells is a write whose commit call failed (its outcome was unknown). It
// returns the delivery latencies (receipt minus submission) of the commits
// submitted inside the window.
func verifyWatch(w *watcher, l *ledger) (watchSamples, error) {
	var out watchSamples
	w.mu.Lock()
	got := append([]delivered(nil), w.got...)
	w.mu.Unlock()
	acked := make(map[kv.Timestamp]*commitRec, len(l.acked))
	for i := range l.acked {
		c := &l.acked[i]
		if c.ts > w.from {
			acked[c.ts] = c
		}
	}
	var last kv.Timestamp
	seen := make(map[kv.Timestamp]bool, len(got))
	for _, d := range got {
		if d.ts <= last {
			return out, fmt.Errorf("watch: commit %d delivered after %d (order or duplicate)", d.ts, last)
		}
		last = d.ts
		c, ok := acked[d.ts]
		if !ok {
			for _, h := range d.cells {
				if !l.maybe[h] {
					return out, fmt.Errorf("watch: commit %d carries a cell no writer issued", d.ts)
				}
			}
			continue
		}
		seen[d.ts] = true
		if int(c.cells) != len(d.cells) || c.hash != d.hash {
			return out, fmt.Errorf("watch: commit %d delivered %d cells that differ from the %d written", d.ts, len(d.cells), c.cells)
		}
		if c.timed {
			out.lat = append(out.lat, d.recv-c.submit)
			out.at = append(out.at, c.submit)
		}
	}
	for ts := range acked {
		if !seen[ts] {
			return out, fmt.Errorf("watch: acknowledged commit %d never delivered", ts)
		}
	}
	return out, nil
}
