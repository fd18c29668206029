package main

import (
	"container/heap"
	"math/rand"
	"runtime"
	"syscall"
	"time"
)

// Host-speed calibration. On the 2-vCPU Intel Xeon VM the bounds were set
// on, a shared machine, CPU speed drifts by ±12% over minutes (neighbours
// contend for caches and memory), far more than the changes the benchmark
// must detect. A fixed calibration kernel, run between the scenarios of
// every pass, slows down with the host, and dividing an invocation's times
// by its slowdown removes much of the drift: over two sets of ten seeds
// per workload, the quartile spread of cpu_s fell from 11–14% raw to
// 3–11% normalized on three of the four workloads, and read 8–13% either
// way on paper-packet (METRICS.md, "Run-to-run spread"). The kernel is the
// benchmark's own code, so no change to the program can move it.

// calibOps is the kernel's fixed work: ~35 ms of CPU on that VM.
const calibOps = 100000

// calibRuns is how many kernel runs each pass spreads across its
// scenarios.
const calibRuns = 8

// calibRefS is the kernel's CPU time on the reference host (a quiet period
// of the 2-vCPU Xeon the bounds were set on). Normalized times are seconds
// at that speed.
const calibRefS = 0.035

type calibEvent struct {
	at   float64
	id   int
	node *calibNode
}

type calibQueue []calibEvent

func (q calibQueue) Len() int            { return len(q) }
func (q calibQueue) Less(i, j int) bool  { return q[i].at < q[j].at }
func (q calibQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *calibQueue) Push(x interface{}) { *q = append(*q, x.(calibEvent)) }
func (q *calibQueue) Pop() interface{} {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

type calibNode struct {
	next  *calibNode
	count int
	sum   float64
}

// calibSink keeps the kernel's result live.
var calibSink int

// calibKernel does what a discrete-event loop does, on fixed inputs: pop
// the earliest event, chase pointers through a few thousand heap objects,
// update a map, allocate now and then, and schedule a follow-up event.
func calibKernel() {
	rng := rand.New(rand.NewSource(1))
	nodes := make([]*calibNode, 4096)
	for i := range nodes {
		nodes[i] = &calibNode{}
	}
	for _, n := range nodes {
		n.next = nodes[rng.Intn(len(nodes))]
	}
	q := make(calibQueue, 0, 1024)
	for i := 0; i < 1024; i++ {
		heap.Push(&q, calibEvent{at: rng.Float64(), id: i, node: nodes[i]})
	}
	counts := make(map[int]int, 1024)
	var keep [][]byte
	for i := 0; i < calibOps; i++ {
		e := heap.Pop(&q).(calibEvent)
		n := e.node
		for k := 0; k < 4; k++ {
			n.count++
			n.sum += e.at
			n = n.next
		}
		counts[e.id&1023]++
		if i%16 == 0 {
			keep = append(keep[:0], make([]byte, 64))
		}
		heap.Push(&q, calibEvent{at: e.at + rng.Float64(), id: e.id, node: n})
	}
	calibSink = len(counts) + len(keep)
}

// timeKernel runs the kernel once and returns its CPU and wall seconds.
// The CPU time is the kernel's own thread's, so the runtime's background
// work (a scavenger returning a big scenario's heap, say) does not land in
// it.
func timeKernel() (cpuS, wallS float64) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0, w0 := threadCPU(), time.Now()
	calibKernel()
	return threadCPU() - c0, time.Since(w0).Seconds()
}

// rusageThread is Linux's RUSAGE_THREAD, which package syscall does not
// name.
const rusageThread = 1

func threadCPU() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(rusageThread, &ru) // cannot fail for RUSAGE_THREAD
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// calibSlots says how many kernel runs go in each of the n+1 gaps around
// n scenarios (before the first, between each pair, after the last), so
// that the runs spread evenly over the pass.
func calibSlots(n int) []int {
	slots := make([]int, n+1)
	for k := 0; k < calibRuns; k++ {
		slots[k*(n+1)/calibRuns]++
	}
	return slots
}

// hostSpeed is how much slower than the reference host the calibration
// kernel ran over a set of passes: the median of all their kernel times
// over calibRefS, in CPU and in wall time. Pooling every pass of an
// invocation gives the median a few dozen samples, as many as the
// 20-second windows that tracked the drift above.
type hostSpeed struct{ cpu, wall float64 }

func speedOf(passes []passResult) hostSpeed {
	var cpu, wall []float64
	for _, p := range passes {
		cpu = append(cpu, p.CalibCPUS...)
		wall = append(wall, p.CalibWallS...)
	}
	if len(cpu) == 0 {
		return hostSpeed{1, 1}
	}
	return hostSpeed{median(cpu) / calibRefS, median(wall) / calibRefS}
}
