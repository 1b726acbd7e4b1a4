package serve

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/soc"
	"repro/internal/tensor"
)

// worker is one pooled instance's serving loop: dequeue the head request,
// gather a micro-batch behind it, execute the batch under the model's
// exclusive device reservation, and fan results back out. On drain the
// worker finishes whatever is still queued (answering expired requests with
// their deadline error) and exits. Every worker records its serving phases
// (coalesce, lock-wait, per-request queue-wait and execute) as wall-clock
// spans on its own tracer track, exported by /tracez.
func (e *endpoint) worker(tk *obs.Track) {
	defer e.wg.Done()
	for {
		select {
		case req := <-e.queue:
			e.serveOne(req, tk)
		case <-e.server.drainCh:
			e.drainQueue(tk)
			return
		case <-e.drainCh:
			e.drainQueue(tk)
			return
		}
	}
}

// drainQueue serves whatever admission let in before drain began, then
// returns. Admission stops (under the server mutex) before either drain
// channel closes, so an empty receive here means the queue is empty for good.
func (e *endpoint) drainQueue(tk *obs.Track) {
	for {
		select {
		case req := <-e.queue:
			e.serveOne(req, tk)
		default:
			return
		}
	}
}

// serveOne gathers a batch behind the head request and runs it, tracing the
// coalesce window.
func (e *endpoint) serveOne(first *request, tk *obs.Track) {
	gatherStart := time.Now()
	batch := e.gather(first)
	args := append(traceArgs(batch), obs.A("batch", len(batch)))
	tk.Emit("coalesce:"+e.name, "serve", gatherStart, time.Since(gatherStart), args...)
	e.runBatch(batch, tk)
}

// traceArgs stamps a batch-level span with every member request's trace ID
// (one Arg per distinct traced request), so /tracez?id= finds the coalesce /
// lock-wait phases of any request that rode in the batch.
func traceArgs(batch []*request) []obs.Arg {
	var args []obs.Arg
	for _, r := range batch {
		if r.trace.Valid() {
			args = append(args, obs.A(obs.TraceArg, r.trace.TraceID))
		}
	}
	return args
}

// record writes one request's flight-record entry and feeds the SLO window.
// Called once per request on every outcome path (ok / failed / expired).
func (e *endpoint) record(r *request, status string, batchSize int, queue, exec, total time.Duration) {
	e.server.flight.Load().Record(obs.FlightRecord{
		UnixMicro: time.Now().UnixMicro(),
		TraceID:   r.trace.TraceID,
		Model:     e.name,
		Worker:    e.server.WorkerKey(),
		Status:    status,
		BatchSize: batchSize,
		QueueMs:   float64(queue) / float64(time.Millisecond),
		ExecMs:    float64(exec) / float64(time.Millisecond),
		TotalMs:   float64(total) / float64(time.Millisecond),
		Devices:   e.devicesLabel,
	})
	e.server.slo.Observe(e.name, float64(total)/float64(time.Millisecond), status != "ok")
}

// gather coalesces same-model requests behind first: it holds the batch open
// for at most BatchWindow, closing early when MaxBatch is reached or drain
// begins. With batching disabled it returns immediately.
func (e *endpoint) gather(first *request) []*request {
	batch := []*request{first}
	if e.opts.MaxBatch <= 1 {
		return batch
	}
	timer := time.NewTimer(e.opts.BatchWindow)
	defer timer.Stop()
	for len(batch) < e.opts.MaxBatch {
		select {
		case req := <-e.queue:
			batch = append(batch, req)
		case <-timer.C:
			return batch
		case <-e.server.drainCh:
			// Don't hold the window open during shutdown; take what is
			// already queued and go.
			return e.gatherRemaining(batch)
		case <-e.drainCh:
			return e.gatherRemaining(batch)
		}
	}
	return batch
}

// gatherRemaining tops a closing batch up from whatever is already queued,
// without holding the coalesce window open.
func (e *endpoint) gatherRemaining(batch []*request) []*request {
	for len(batch) < e.opts.MaxBatch {
		select {
		case req := <-e.queue:
			batch = append(batch, req)
		default:
			return batch
		}
	}
	return batch
}

// runBatch executes one coalesced batch on a pooled module under the model's
// exclusive device locks. Requests whose context expired while queued (or
// while the batch window was open) are answered with their context error
// without executing.
func (e *endpoint) runBatch(batch []*request, tk *obs.Track) {
	live := make([]*request, 0, len(batch))
	for _, r := range batch {
		if err := r.ctx.Err(); err != nil {
			e.stats.expired()
			wait := time.Since(r.enqueued)
			e.record(r, "expired", len(batch), wait, 0, wait)
			r.respond(nil, fmt.Errorf("serve: %s: expired after %v in queue: %w",
				e.name, wait.Round(time.Microsecond), err))
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	if e.opts.Gate != nil {
		e.opts.Gate(len(live))
	}

	// Checkout order is fixed (pool, then device locks) across all workers
	// and endpoints, so the two acquisitions cannot deadlock.
	lockStart := time.Now()
	gm := <-e.pool
	e.server.locks.Lock(e.opts.Devices)
	tk.Emit("lock-wait:"+e.name, "serve", lockStart, time.Since(lockStart), traceArgs(live)...)
	defer func() {
		e.server.locks.Unlock(e.opts.Devices)
		e.pool <- gm
	}()

	runStart := time.Now()
	var batchSim soc.Seconds
	for i, r := range live {
		res, err := e.runOne(gm, r, len(live), runStart, tk)
		if res != nil {
			batchSim += res.SimTime
		}
		if i == len(live)-1 {
			// The batch's books close before its last reply goes out, so
			// whoever holds every reply of a batch finds it on /statsz. It
			// occupied its device set exclusively for its summed simulated
			// cost: one reservation on the shared virtual timeline (what
			// /statsz reports as per-device busy time).
			e.server.timeline.ScheduleMulti(e.opts.Devices, e.name, 0, batchSim)
			e.stats.batchDone(len(live))
		}
		r.respond(res, err)
	}
}

// runOne executes one request of a batch on gm and keeps its books — spans,
// counters, flight record — leaving only the reply to the caller.
func (e *endpoint) runOne(gm *runtime.GraphModule, r *request, batch int, runStart time.Time, tk *obs.Track) (*Result, error) {
	// The batch window may have outlived a tight deadline.
	if err := r.ctx.Err(); err != nil {
		e.stats.expired()
		wait := time.Since(r.enqueued)
		e.record(r, "expired", batch, wait, 0, wait)
		return nil, fmt.Errorf("serve: %s: expired before execution: %w", e.name, err)
	}
	queueWait := runStart.Sub(r.enqueued)
	if r.trace.Valid() {
		tk.Emit("queue-wait:"+e.name, "serve", r.enqueued, queueWait,
			obs.A(obs.TraceArg, r.trace.TraceID))
	} else {
		tk.Emit("queue-wait:"+e.name, "serve", r.enqueued, queueWait)
	}
	start := time.Now()
	for name, t := range r.inputs {
		gm.SetInput(name, t)
	}
	err := gm.Run()
	var outs []*tensor.Tensor
	if err == nil {
		outs = copyOutputs(gm, r.outs)
	}
	// The request's tensors are its handler's again once it is answered.
	gm.ClearInputs()
	execWall := time.Since(start)
	// The request's own span goes on the track before the request is
	// answered: a client that asks /tracez?id= for its request the moment
	// it has the reply must find it.
	if r.trace.Valid() {
		tk.Emit("execute:"+e.name, "serve", start, execWall,
			obs.A(obs.TraceArg, r.trace.TraceID), obs.A("batch", batch))
	} else {
		tk.Emit("execute:"+e.name, "serve", start, execWall, obs.A("batch", batch))
	}
	if err != nil {
		e.stats.failed()
		e.record(r, "failed", batch, queueWait, execWall, time.Since(r.enqueued))
		return nil, fmt.Errorf("serve: %s: %w", e.name, err)
	}
	sim := gm.LastProfile().Total()
	e.stats.completed(time.Since(r.enqueued), queueWait, execWall, sim)
	e.record(r, "ok", batch, queueWait, execWall, time.Since(r.enqueued))
	return &Result{
		Outputs:   outs,
		Version:   e.opts.Version,
		BatchSize: batch,
		QueueWait: queueWait,
		Wall:      execWall,
		SimTime:   sim,
	}, nil
}

// copyOutputs copies gm's outputs out of its arena into dst, grown to the
// output count, reusing each entry whose dtype, shape and quantization fit.
//
//np:hotpath
func copyOutputs(gm *runtime.GraphModule, dst []*tensor.Tensor) []*tensor.Tensor {
	n := gm.NumOutputs()
	dst = slices.Grow(dst[:0], n)[:n] //np:alloc-ok only while dst is short: Submit's nil, a set's first request
	for i := range dst {
		dst[i], _ = gm.OutputCopyInto(i, dst[i]) // i < NumOutputs: no error
	}
	return dst
}
