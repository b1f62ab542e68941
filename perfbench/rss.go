package main

import (
	"bytes"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// rssSampler tracks the peak resident set of the process while an
// operation runs, by reading /proc/self/statm every few milliseconds.
// Where that file does not exist it falls back to the process-lifetime
// peak from getrusage.
type rssSampler struct {
	peak atomic.Int64
	stop chan struct{}
	wg   sync.WaitGroup
}

func startRSSSampler(every time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{})}
	if _, ok := readRSS(); !ok {
		return s
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.observe()
			}
		}
	}()
	return s
}

// observe folds the current resident set into the peak.
func (s *rssSampler) observe() {
	rss, ok := readRSS()
	if !ok {
		return
	}
	for {
		cur := s.peak.Load()
		if rss <= cur || s.peak.CompareAndSwap(cur, rss) {
			return
		}
	}
}

// reset starts a new peak at the current resident set.
func (s *rssSampler) reset() {
	s.peak.Store(0)
	s.observe()
}

// peakMB returns the peak since the last reset, in MB (2^20 bytes).
func (s *rssSampler) peakMB() float64 {
	s.observe()
	if p := s.peak.Load(); p > 0 {
		return float64(p) / (1 << 20)
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024
}

func (s *rssSampler) close() {
	close(s.stop)
	s.wg.Wait()
}

var pageSize = int64(os.Getpagesize())

// readRSS returns the resident set size in bytes.
func readRSS() (int64, bool) {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := bytes.Fields(raw)
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseInt(string(f[1]), 10, 64)
	if err != nil {
		return 0, false
	}
	return pages * pageSize, true
}
