package telemetry

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// StartProgress emits a heartbeat line (Report.String) of c to w every
// tick until the returned stop function is called; GET /status serves
// the same document as JSON. Stop emits a final heartbeat so short
// sweeps always produce at least one. The emitter never blocks
// workers: building a Report takes no lock.
func StartProgress(w io.Writer, c *Collector, every time.Duration) (stop func()) {
	if every <= 0 {
		every = time.Second
	}
	emit := func() { fmt.Fprintln(w, c.Report()) }
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				emit()
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
			emit()
		})
	}
}
