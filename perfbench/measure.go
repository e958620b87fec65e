package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"txkv/internal/obs"
)

// slices is how many equal slices a measured window is cut into for the
// figures reported as a median over slices (CPU per op, the p99s), so a
// disturbance from another tenant that lasts less than half the window does
// not move them.
const slices = 6

// marks is how many equal parts the window's CPU time is recorded for;
// slices of any count dividing it are unions of parts.
const marks = 60

// epoch anchors monotonic timestamps (mono) for the whole process.
var epoch = time.Now()

func mono(t time.Time) int64 { return int64(t.Sub(epoch)) }

// opClass accumulates one operation class's outcomes: each completed
// operation's latency and completion time (nanoseconds, mono), and the
// attempted and failed counts. Workers record into their own opClass and
// merge at the end of the window, so the hot path takes no lock.
type opClass struct {
	lat       []int64
	at        []int64
	attempted int64
	failed    int64
}

func (c *opClass) ok(d time.Duration) {
	c.attempted++
	c.lat = append(c.lat, int64(d))
	c.at = append(c.at, mono(time.Now()))
}

func (c *opClass) fail() {
	c.attempted++
	c.failed++
}

func (c *opClass) merge(o *opClass) {
	c.lat = append(c.lat, o.lat...)
	c.at = append(c.at, o.at...)
	c.attempted += o.attempted
	c.failed += o.failed
}

// classSet is a named set of op classes; one per worker, merged at the end.
type classSet map[string]*opClass

func (s classSet) get(name string) *opClass {
	c, ok := s[name]
	if !ok {
		c = &opClass{}
		s[name] = c
	}
	return c
}

func (s classSet) merge(o classSet) {
	for name, c := range o {
		s.get(name).merge(c)
	}
}

// quantile is the exact nearest-rank order statistic of the samples
// (sorted in place): the smallest sample with at least q of all samples at
// or below it. Zero samples give zero.
func quantile(samples []int64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	rank := int(math.Ceil(q*float64(len(samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	return float64(samples[rank])
}

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set (getrusage maxrss, KiB on
// Linux) in MiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// procStat is the machine-wide "cpu" line of /proc/stat, in clock ticks.
type procStat struct {
	total, idle, steal uint64
	ok                 bool
}

func readProcStat() procStat {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return procStat{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return procStat{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return procStat{}
	}
	var ps procStat
	for i, f := range fields[1:] {
		if i >= 8 { // guest and guest_nice are already counted in user
			break
		}
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return procStat{}
		}
		ps.total += v
		switch i {
		case 3, 4: // idle, iowait
			ps.idle += v
		case 7:
			ps.steal = v
		}
	}
	ps.ok = true
	return ps
}

// machineShare is the steal and busy (non-idle, non-steal) shares of all
// CPU time between two /proc/stat reads, in percent.
func machineShare(a, b procStat) (stealPct, busyPct float64) {
	if !a.ok || !b.ok || b.total <= a.total {
		return -1, -1
	}
	dt := float64(b.total - a.total)
	steal := float64(b.steal - a.steal)
	idle := float64(b.idle - a.idle)
	return 100 * steal / dt, 100 * (dt - idle - steal) / dt
}

// window brackets the measured interval: its slice boundaries (mono) with
// the process CPU time at each, the machine's /proc/stat counters and the
// Go allocator totals at either end.
type window struct {
	bounds            []int64
	cpu               []time.Duration
	stat0, stat1      procStat
	alloc0, alloc1    uint64
	gc0, gc1          uint32
	stealPct, busyPct float64
	seconds           float64
}

// run measures load(d), marking the CPU time at every slice boundary.
func (w *window) run(d time.Duration, load func(time.Duration) (classSet, error)) (classSet, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.alloc0, w.gc0 = ms.TotalAlloc, ms.NumGC
	w.stat0 = readProcStat()
	start := time.Now()
	w.bounds = []int64{mono(start)}
	w.cpu = []time.Duration{cpuTime()}

	stop := make(chan struct{})
	marked := make(chan struct{})
	go func() {
		defer close(marked)
		for k := 1; k < marks; k++ {
			at := start.Add(d * time.Duration(k) / marks)
			select {
			case <-stop:
				return
			case <-time.After(time.Until(at)):
			}
			w.cpu = append(w.cpu, cpuTime())
			w.bounds = append(w.bounds, mono(time.Now()))
		}
	}()
	cs, err := load(d)
	close(stop)
	<-marked
	end := time.Now()
	w.cpu = append(w.cpu, cpuTime())
	w.bounds = append(w.bounds, mono(end))
	w.stat1 = readProcStat()
	runtime.ReadMemStats(&ms)
	w.alloc1, w.gc1 = ms.TotalAlloc, ms.NumGC
	w.seconds = end.Sub(start).Seconds()
	w.stealPct, w.busyPct = machineShare(w.stat0, w.stat1)
	return cs, err
}

// part returns the index of the part holding mono time t (times past the
// window's end count in its last part).
func (w *window) part(t int64) int {
	i := sort.Search(len(w.bounds), func(i int) bool { return w.bounds[i] > t }) - 1
	if i < 0 {
		return 0
	}
	if i > len(w.bounds)-2 {
		return len(w.bounds) - 2
	}
	return i
}

// groupOf maps a part to its slice when the window is cut into n slices.
func (w *window) groupOf(part, n int) int { return part * n / (len(w.bounds) - 1) }

// phase is one measured stretch of load.
type phase struct {
	cs  classSet
	win window
}

func (p *phase) completed() int64 {
	var n int64
	for _, c := range p.cs {
		n += int64(len(c.lat))
	}
	return n
}

// perSlice returns, for each of the window's slices, the ops completed in
// it, the seconds and the process CPU time it spans.
func (p *phase) perSlice() (ops []int, secs []float64, cpu []time.Duration) {
	ops, secs, cpu = make([]int, slices), make([]float64, slices), make([]time.Duration, slices)
	parts := len(p.win.bounds) - 1
	for k := 0; k < parts; k++ {
		g := p.win.groupOf(k, slices)
		secs[g] += float64(p.win.bounds[k+1]-p.win.bounds[k]) / 1e9
		cpu[g] += p.win.cpu[k+1] - p.win.cpu[k]
	}
	for _, c := range p.cs {
		for _, t := range c.at {
			ops[p.win.groupOf(p.win.part(t), slices)]++
		}
	}
	return ops, secs, cpu
}

// opsPerSec is the median over slices of the ops completed per second.
func (p *phase) opsPerSec() float64 {
	ops, secs, _ := p.perSlice()
	var rates []float64
	for k := range ops {
		if secs[k] > 0 {
			rates = append(rates, float64(ops[k])/secs[k])
		}
	}
	return medianFloat(rates)
}

// cpuPerOp is the median over slices of process CPU microseconds per op.
func (p *phase) cpuPerOp() float64 {
	ops, _, cpu := p.perSlice()
	var per []float64
	for k := range ops {
		if ops[k] > 0 {
			per = append(per, float64(cpu[k].Microseconds())/float64(ops[k]))
		}
	}
	return medianFloat(per)
}

// p99 is the median over slices of each slice's 99th percentile of lat,
// whose samples completed at the parallel mono times at; in microseconds.
func (p *phase) p99(lat, at []int64) float64 {
	per := make([][]int64, slices)
	for i := range lat {
		k := p.win.groupOf(p.win.part(at[i]), slices)
		per[k] = append(per[k], lat[i])
	}
	var vals []float64
	for _, s := range per {
		if len(s) > 0 {
			vals = append(vals, quantile(s, 0.99)/1e3)
		}
	}
	return medianFloat(vals)
}

// quietSlices is how many slices quietP50 looks at.
const quietSlices = 30

// quietP50 is, in microseconds, the lower quartile of the per-slice
// medians over quietSlices slices: the typical latency of the quieter
// stretches of the window. Other tenants' CPU steal and timer delays only
// ever add latency, and this estimate holds while up to three quarters of
// the slices are disturbed. On the reference machine it spread less
// between runs than both the median over the whole window and the lowest
// slice (see README).
func (p *phase) quietP50(lat, at []int64) float64 {
	per := make([][]int64, quietSlices)
	for i := range lat {
		k := p.win.groupOf(p.win.part(at[i]), quietSlices)
		per[k] = append(per[k], lat[i])
	}
	var meds []int64
	for _, s := range per {
		if len(s) > 0 {
			meds = append(meds, int64(quantile(s, 0.5)))
		}
	}
	return quantile(meds, 0.25) / 1e3
}

// measure runs load for the run's window. A traced run splits the window:
// the first half runs with tracing off and is the overhead base, the second
// with tracing on; mark(true) and mark(false) bracket the traced half so the
// caller can snapshot the program's counters around it.
func (r *runner) measure(tracer *obs.Tracer, load func(time.Duration) (classSet, error), mark func(start bool)) (base, traced phase, err error) {
	run := func(d time.Duration) (phase, error) {
		var p phase
		cs, err := p.win.run(d, load)
		p.cs = cs
		if cs != nil {
			r.classes.merge(cs)
		}
		r.win = &p.win
		return p, err
	}
	if !r.trace {
		base, err = run(r.window)
		return base, traced, err
	}
	tracer.SetEnabled(false)
	if base, err = run(r.window / 2); err != nil {
		return base, traced, err
	}
	tracer.SetEnabled(true)
	r.timers.reset()
	mark(true)
	traced, err = run(r.window / 2)
	mark(false)
	return base, traced, err
}

// e2e adds the end-to-end metrics every workload reports from its untraced
// window; watch holds the watch deliveries' latencies and submission times,
// late how late each request was issued.
func (r *runner) e2e(p phase, rss float64, watch watchSamples, late []int64) {
	r.add("setup_s", medianFloat(r.setups), "s")
	for _, class := range []string{"read", "scan"} {
		c := p.cs.get(class)
		r.add(class+"_p50_us", p.quietP50(c.lat, c.at), "us")
		r.samples[class+"_p50_us"] = len(c.lat)
	}
	r.add("cpu_us_per_op", p.cpuPerOp(), "us")
	r.add("rss_peak_mb", rss, "MiB")

	c := p.cs.get("commit")
	r.report("commit_p50_us", p.quietP50(c.lat, c.at), "us")
	r.samples["commit_p50_us"] = len(c.lat)
	r.report("watch_p50_us", p.quietP50(watch.lat, watch.at), "us")
	r.samples["watch_p50_us"] = len(watch.lat)
	for _, class := range []string{"commit", "read", "scan"} {
		c := p.cs.get(class)
		r.report(class+"_p99_us", p.p99(c.lat, c.at), "us")
		r.samples[class+"_p99_us"] = len(c.lat)
	}
	r.report("ops_per_s", p.opsPerSec(), "1/s")
	r.report("late_p99_us", quantile(late, 0.99)/1e3, "us")
}
