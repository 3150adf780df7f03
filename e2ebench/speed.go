package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host's CPUs change speed under the benchmark, and the host takes
// them away for a while: on a shared 2-vCPU virtual machine, CPU time per
// job drifted by ±10% over twenty minutes, on every workload together, and
// in stretches where the host took up to a third of the CPUs' time,
// requests slowed by a quarter. So each run also times a fixed reference
// kernel, in between its measured stretches, and reports its time-based
// end-to-end metrics scaled to a machine on which one reference unit takes
// refNominal. CPU time is scaled by the unit's CPU time, which follows the
// CPUs' speed; wall-clock time by the unit's wall-clock time, which also
// takes in the time the host held the CPUs.
//
// The kernel belongs to the benchmark, not to the program, so no change to
// the program changes its work. Its working set is mapped outside the Go
// heap, so it neither sets the program's GC pace nor is scanned by it.
// Each goroutine is timed on its own locked OS thread, inside the work, so
// starting goroutines does not count in it, and a goroutine the program
// leaves running cannot take its CPU within a unit.

// refNominal is the time one reference unit takes on the reference
// machine.
const refNominal = 1500 * time.Microsecond

// Reference units run after every timed stretch and after every set-up.
const (
	refUnitsPerStretch = 10
	refUnitsPerSetup   = 3
)

const (
	refTableLen = 1 << 19 // 4 MiB of uint64 per goroutine
	refSortLen  = 1 << 14
	refProbes   = 60000
)

// refKernel holds one preallocated working set per GOMAXPROCS goroutine,
// so a unit exercises every CPU the program runs on.
type refKernel struct {
	sets []refSet
	sink uint64
}

type refSet struct {
	table    []uint64
	src, buf []int
}

// refSetBytes is the working set of one goroutine, resident for the whole
// run: peak_rss_mb includes it once per GOMAXPROCS.
const refSetBytes = 8 * (refTableLen + 2*refSortLen)

func newRefKernel() (*refKernel, error) {
	k := &refKernel{sets: make([]refSet, runtime.GOMAXPROCS(0))}
	for g := range k.sets {
		mem, err := syscall.Mmap(-1, 0, refSetBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return nil, fmt.Errorf("mapping the reference kernel's working set: %w", err)
		}
		words := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), refSetBytes/8)
		ints := unsafe.Slice((*int)(unsafe.Pointer(&mem[8*refTableLen])), 2*refSortLen)
		s := refSet{table: words[:refTableLen], src: ints[:refSortLen], buf: ints[refSortLen:]}
		x := uint64(2*g + 1)
		for i := range s.table {
			x = xorshift(x)
			s.table[i] = x
		}
		for i := range s.src {
			x = xorshift(x)
			s.src[i] = int(x % 1000003)
		}
		k.sets[g] = s
	}
	return k, nil
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// unit runs one reference unit — random read-modify-writes over the table,
// then a sort of a fresh copy of src — on every working set at once, and
// returns the goroutines' mean per-thread CPU time and the longest
// wall-clock time any of them took: like a request fanned out over the
// workers, a unit waits for its slowest part.
func (k *refKernel) unit() (cpuTime, wallTime time.Duration) {
	cpu := make([]time.Duration, len(k.sets))
	wall := make([]time.Duration, len(k.sets))
	sums := make([]uint64, len(k.sets))
	var wg sync.WaitGroup
	for g := range k.sets {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			start, startWall := threadCPU(), time.Now()
			s := &k.sets[g]
			x, sum := uint64(g+3), uint64(0)
			for i := 0; i < refProbes; i++ {
				x = xorshift(x)
				j := x & (refTableLen - 1)
				sum += s.table[j]
				s.table[j] = sum
			}
			copy(s.buf, s.src)
			sort.Ints(s.buf)
			sums[g] = sum + uint64(s.buf[refSortLen/2])
			cpu[g], wall[g] = threadCPU()-start, time.Since(startWall)
		}(g)
	}
	wg.Wait()
	for g := range k.sets {
		cpuTime += cpu[g]
		wallTime = max(wallTime, wall[g])
		k.sink += sums[g]
	}
	return cpuTime / time.Duration(len(k.sets)), wallTime
}

// threadCPU is the calling OS thread's user + system CPU time so far.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_THREAD, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// speed accumulates the reference units of one phase of a run.
type speed struct {
	cpu, wall time.Duration
	units     int
}

// measure runs one unit to warm the caches after the program's work, then
// times units more.
func (s *speed) measure(k *refKernel, units int) {
	k.unit()
	for i := 0; i < units; i++ {
		cpu, wall := k.unit()
		s.cpu += cpu
		s.wall += wall
		s.units++
	}
}

// cpuFactor and wallFactor are how fast the machine ran against the
// reference machine, in CPU time and in wall-clock time: 0.8 means a
// reference unit took 1.25 × refNominal. A time measured in the phase is
// scaled to the reference machine by multiplying it by the factor, and a
// rate by dividing it by the factor.
func (s speed) cpuFactor() float64 {
	return float64(refNominal) * float64(s.units) / float64(s.cpu)
}

func (s speed) wallFactor() float64 {
	return float64(refNominal) * float64(s.units) / float64(s.wall)
}
