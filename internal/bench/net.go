package bench

import (
	"strconv"
	"time"

	"treaty/internal/workload"
)

// Figure 8: network bandwidth of seven stacks across message sizes. The
// paper's message sizes are 64 B to 4 KiB; the seven systems are the
// native and SCONE builds of iPerf-UDP, iPerf-TCP, and eRPC, plus
// Treaty's fully secured networking.

// Fig8Sizes are the paper's message sizes in bytes.
func Fig8Sizes() []int { return []int{64, 256, 1024, 1460, 2048, 4096} }

// Fig8System is one plotted line.
type Fig8System struct {
	// Label matches the figure legend.
	Label string
	// Stack and Scone select the configuration.
	Stack workload.NetStack
	Scone bool
}

// Fig8Systems lists the seven lines in legend order.
func Fig8Systems() []Fig8System {
	return []Fig8System{
		{Label: "iPerf UDP", Stack: workload.StackUDP},
		{Label: "iPerf UDP (Scone)", Stack: workload.StackUDP, Scone: true},
		{Label: "iPerf TCP", Stack: workload.StackTCP},
		{Label: "iPerf TCP (Scone)", Stack: workload.StackTCP, Scone: true},
		{Label: "eRPC", Stack: workload.StackERPC},
		{Label: "eRPC (Scone)", Stack: workload.StackERPC, Scone: true},
		{Label: "Treaty networking", Stack: workload.StackTreaty, Scone: true},
	}
}

// RunFig8 measures throughput (Gb/s) for every system at every message
// size, the median round of perPoint split into rounds. Result: map
// system label -> one value per Fig8Sizes entry.
func RunFig8(perPoint time.Duration) (map[string][]float64, error) {
	if perPoint == 0 {
		perPoint = 150 * time.Millisecond
	}
	out := make(map[string][]float64, 7)
	for _, sys := range Fig8Systems() {
		var series []float64
		for _, size := range Fig8Sizes() {
			gbps := make([]float64, 0, rounds)
			for r := 0; r < rounds; r++ {
				res, err := workload.RunIperf(workload.IperfConfig{
					Stack:    sys.Stack,
					Scone:    sys.Scone,
					MsgSize:  size,
					Duration: perPoint / rounds,
				})
				if err != nil {
					return nil, err
				}
				gbps = append(gbps, res.Gbps)
			}
			series = append(series, median(gbps, func(g float64) float64 { return g }))
		}
		out[sys.Label] = series
	}
	return out, nil
}

// PrintFig8 renders the figure's series table.
func PrintFig8(series map[string][]float64) string {
	xs := make([]string, 0, len(Fig8Sizes()))
	for _, s := range Fig8Sizes() {
		xs = append(xs, strconv.Itoa(s)+"B")
	}
	order := make([]string, 0, 7)
	for _, sys := range Fig8Systems() {
		order = append(order, sys.Label)
	}
	return SeriesTable("Figure 8: network throughput (Gb/s) by message size", "message size", xs, series, order)
}
