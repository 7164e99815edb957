package main

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// load.go — the closed-loop load generator of the daemon workloads.
// The callers this service has are scripts and CI jobs that wait for a
// reply before sending the next request, so the honest model is a
// closed loop: a fixed number of clients, each on its own keep-alive
// connection, each sending its next request when the previous one has
// been answered. A slower daemon therefore receives less load; the
// numbers say how fast ops complete, not how a backlog grows.

// clients is the closed-loop client count of every daemon workload.
const clients = 2

// window is what one load run observed.
type window struct {
	WallS     float64
	Ops       int       // requests sent
	Failed    int       // non-200, transport error, or wrong body
	Points    int64     // point bodies in 200 responses
	Bytes     int64     // classify and sweep response bytes
	LatMS     []float64 // latency of successful ops, sorted
	ClientUS  float64   // sum of the above in microseconds
	ByKind    map[opKind]int
	FirstFail string
}

// add merges another window of the same run into w.
func (w *window) add(o *window) {
	w.WallS += o.WallS
	w.Ops += o.Ops
	w.Failed += o.Failed
	w.Points += o.Points
	w.Bytes += o.Bytes
	w.ClientUS += o.ClientUS
	w.LatMS = append(w.LatMS, o.LatMS...)
	sort.Float64s(w.LatMS)
	if w.ByKind == nil {
		w.ByKind = map[opKind]int{}
	}
	for k, n := range o.ByKind {
		w.ByKind[k] += n
	}
	if w.FirstFail == "" {
		w.FirstFail = o.FirstFail
	}
}

// windowSlices is how many slices an untraced measured window is cut
// into; timing metrics are medians over the slices.
const windowSlices = 10

// slice holds the timing metrics of one slice of the window.
type slice struct {
	PointsPerS    float64
	P50MS         float64
	CPUUSPerPoint float64
}

// setTimings reports the median slice of each timing metric.
func (r *result) setTimings(slices []slice) {
	var pps, p50, cpu []float64
	for _, s := range slices {
		pps, p50, cpu = append(pps, s.PointsPerS), append(p50, s.P50MS), append(cpu, s.CPUUSPerPoint)
	}
	r.set("points_per_s", median(pps))
	r.set("op_p50_ms", median(p50))
	r.set("cpu_us_per_point", median(cpu))
}

// runLoad drives sched against addr for at most dur (or until the
// schedule runs out), starting at schedule index *next and advancing
// it. hotRef holds the expected body of each hot-set point; a reply
// that differs is a failure, which is how the identical-request →
// identical-bytes contract is checked on every hot op.
func runLoad(addr string, sched []request, next *atomic.Int64, dur time.Duration, hotRef [][]byte, tr *tracer) (*window, error) {
	type part struct {
		lat       []float64
		failed    int
		ops       int
		points    int64
		bytes     int64
		byKind    map[opKind]int
		firstFail string
	}
	parts := make([]part, clients)
	conns := make([]*conn, clients)
	for i := range conns {
		c, err := dial(addr)
		if err != nil {
			return nil, err
		}
		defer c.close()
		conns[i] = c
	}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(p *part, c *conn) {
			defer wg.Done()
			p.byKind = map[opKind]int{}
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				rq := &sched[i]
				sp := tr.start("request."+rq.Kind.String(), 0, i)
				t0 := time.Now()
				status, body, err := c.post(rq.Path, rq.Body)
				lat := time.Since(t0)
				tr.end(sp)
				p.ops++
				p.byKind[rq.Kind]++
				if why := checkReply(rq, status, body, err, hotRef); why != "" {
					p.failed++
					if p.firstFail == "" {
						p.firstFail = fmt.Sprintf("request %d (%s): %s", i, rq.Kind, why)
					}
					if err != nil {
						// The connection's framing is lost; reconnect.
						c.close()
						nc, derr := dial(c.addr)
						if derr != nil {
							return
						}
						*c = *nc
					}
					continue
				}
				p.lat = append(p.lat, float64(lat.Nanoseconds())/1e6)
				p.points += int64(rq.Points)
				if rq.Points > 0 {
					p.bytes += int64(len(body))
				}
			}
		}(&parts[ci], conns[ci])
	}
	wg.Wait()
	w := &window{WallS: time.Since(start).Seconds(), ByKind: map[opKind]int{}}
	for _, p := range parts {
		w.Ops += p.ops
		w.Failed += p.failed
		w.Points += p.points
		w.Bytes += p.bytes
		w.LatMS = append(w.LatMS, p.lat...)
		for k, n := range p.byKind {
			w.ByKind[k] += n
		}
		if w.FirstFail == "" {
			w.FirstFail = p.firstFail
		}
	}
	sort.Float64s(w.LatMS)
	for _, l := range w.LatMS {
		w.ClientUS += l * 1e3
	}
	return w, nil
}

// checkReply returns why a reply is wrong, or "" if it is right.
func checkReply(rq *request, status int, body []byte, err error, hotRef [][]byte) string {
	switch {
	case err != nil:
		return err.Error()
	case status != http.StatusOK:
		return fmt.Sprintf("status %d: %.200s", status, body)
	case rq.Kind == opHot && !bytes.Equal(body, hotRef[rq.Hot]):
		return "hot-set reply differs from the first reply to the same request"
	case rq.Kind == opSweep && !bytes.HasPrefix(body, []byte(fmt.Sprintf(`{"count":%d,`, rq.Points))):
		return fmt.Sprintf("sweep reply does not carry %d points: %.80s", rq.Points, body)
	case rq.Points == 1 && !bytes.HasPrefix(body, []byte(`{"kernel":`)):
		return fmt.Sprintf("not a point body: %.80s", body)
	}
	return ""
}
