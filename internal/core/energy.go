package core

import "context"

// Energy extension (the paper's Section 7 names energy optimization as
// future work): estimate energy per instruction across pipeline depths
// using the characterized per-cell static power and switching energy.
//
// The model is deliberately simple and fully derived from characterized
// quantities: a core of N average cells burns
//
//	P_static = N * mean(leak_low, leak_high)
//	E_dyn/cycle = alpha * N * E_switch
//
// with activity factor alpha; energy per instruction is
// (E_dyn/cycle + P_static * T_clk) / IPC.

// ActivityFactor is the assumed fraction of cells switching per cycle.
const ActivityFactor = 0.1

// EnergyPoint is one depth of the energy sweep.
type EnergyPoint struct {
	Depth       int
	Freq        float64
	MeanIPC     float64
	EPI         float64 // energy per instruction, J
	StaticShare float64 // fraction of EPI due to static power
}

// EnergySweep estimates energy per instruction for core depths
// minDepth..maxDepth. Organic cores are static-dominated (ratioed
// pseudo-E logic burns microwatts per cell at millisecond cycle times),
// so higher frequency directly reduces energy per op — deep pipelines
// help organic energy as well as performance. Silicon is
// dynamic-dominated and far less depth-sensitive.
func EnergySweep(t *Tech, minDepth, maxDepth int) ([]EnergyPoint, error) {
	return EnergySweepCtx(context.Background(), t, minDepth, maxDepth)
}

// EnergySweepCtx is EnergySweep with cancellation and span parenting
// for the underlying depth sweep.
func EnergySweepCtx(ctx context.Context, t *Tech, minDepth, maxDepth int) ([]EnergyPoint, error) {
	pts, err := CoreDepthSweep(ctx, t, minDepth, maxDepth, true)
	if err != nil {
		return nil, err
	}
	rep := t.Lib.MustCell("NAND2")
	leak := (rep.LeakLow + rep.LeakHigh) / 2
	out := make([]EnergyPoint, 0, len(pts))
	for _, p := range pts {
		cells := p.Area / rep.Area
		pStatic := cells * leak
		eDyn := ActivityFactor * cells * rep.SwitchEnergy
		// Average only the benchmarks that actually simulated; under a
		// partial-results chaos sweep some may be annotated in p.Errors
		// and absent from p.IPC.
		var ipc float64
		present := 0
		for _, b := range Benchmarks() {
			if v, ok := p.IPC[b]; ok {
				ipc += v
				present++
			}
		}
		if present > 0 {
			ipc /= float64(present)
		}
		period := p.Period
		var epi, share float64
		if ipc > 0 {
			epi = (eDyn + pStatic*period) / ipc
			share = pStatic * period / (eDyn + pStatic*period)
		}
		out = append(out, EnergyPoint{
			Depth:       p.Depth,
			Freq:        p.Freq,
			MeanIPC:     ipc,
			EPI:         epi,
			StaticShare: share,
		})
	}
	return out, nil
}
