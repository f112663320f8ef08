package main

import (
	"bytes"
	"os"
	"strconv"
	"time"
)

// rssEvery is how often an rssWatch samples the resident set size when the
// kernel's high-water mark cannot be reset.
const rssEvery = 5 * time.Millisecond

// rssWatch measures the process's peak resident set size while one unit of
// work runs. Manager, workers and library instances all live in the
// process; forked task commands do not. A peak per unit of work, rather
// than the process's lifetime high-water mark, lets the run report a median
// instead of a maximum.
//
// The kernel tracks the exact peak (VmHWM in /proc/self/status), and
// writing "5" to /proc/self/clear_refs resets it to the current size, so a
// watch costs two file accesses and misses no short peak. Where that write
// is refused, a goroutine samples /proc/self/statm every rssEvery instead.
type rssWatch struct {
	stop, done chan struct{} // nil when the kernel's peak is used
	peak       int64         // bytes; written by the sampler, read after done
}

func watchRSS() *rssWatch {
	if resetHWM() == nil {
		return &rssWatch{}
	}
	w := &rssWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			w.peak = max(w.peak, rssBytes())
			select {
			case <-w.stop:
				w.peak = max(w.peak, rssBytes())
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// end stops the watch and returns the peak in MB.
func (w *rssWatch) end() float64 {
	if w.stop == nil {
		return float64(hwmBytes()) / (1 << 20)
	}
	close(w.stop)
	<-w.done
	return float64(w.peak) / (1 << 20)
}

// resetHWM resets the kernel's resident set size high-water mark to the
// current size.
func resetHWM() error {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	_, err = f.Write([]byte("5"))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// hwmBytes reads the resident set size high-water mark from
// /proc/self/status (0 where it is unavailable).
func hwmBytes() int64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range bytes.Split(raw, []byte("\n")) {
		rest, ok := bytes.CutPrefix(l, []byte("VmHWM:"))
		if !ok {
			continue
		}
		fields := bytes.Fields(rest) // "<n> kB"
		if len(fields) == 0 {
			return 0
		}
		kb, err := strconv.ParseInt(string(fields[0]), 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

// rssBytes reads the resident set size from /proc/self/statm (0 where it
// is unavailable).
func rssBytes() int64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := bytes.Fields(raw)
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(string(fields[1]), 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}
