package obs

import "time"

// Memory is a run's memory and collection book, the paper's GT and PM
// (Tables 2–3, Figure 4) with the peaks and collection counts beside them.
type Memory struct {
	GT         time.Duration // stop-the-world pause time, summed over the VMs
	PM         int64         // the worst single VM's heap plus native peak
	HeapPeak   int64         // the worst VM's managed-heap peak
	NativePeak int64         // the worst VM's page-store (DRAM) peak
	MinorGCs   int64
	FullGCs    int64
}

// MemoryOf folds the snapshots of every VM a run used — each incarnation of
// a restarted node included — into the run's Memory: pause time and
// collection counts add up, peaks take the maximum. A P VM has no offheap
// gauges, so its native peak reads 0.
func MemoryOf(snaps ...Snapshot) Memory {
	var m Memory
	for _, s := range snaps {
		heap := s.Gauges[GaugeHeapUsed+".hw"]
		native := s.Gauges[GaugeBytesInUse+".hw"]
		m.GT += time.Duration(s.Histograms[HistGCPause].Sum)
		m.MinorGCs += s.Histograms[HistGCPauseMinor].Count
		m.FullGCs += s.Histograms[HistGCPauseFull].Count
		m.HeapPeak = max(m.HeapPeak, heap)
		m.NativePeak = max(m.NativePeak, native)
		m.PM = max(m.PM, heap+native)
	}
	return m
}
