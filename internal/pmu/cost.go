package pmu

// Sampling cost model in cycles. The constants are calibrated so that, at
// the paper's default sampling period of one sample per 5000 retired
// instructions (≈0.7 MHz on their machine), the measured end-to-end
// overheads land near the paper's §6.2 numbers:
//
//	IP+time sampling:          ≈35%
//	IP+time+registers:         ≈38% (Register Tagging adds ≈3%)
//	IP+call-stack sampling:    ≈529%
//
// The cycle-event period of 5000 corresponds to 0.7 MHz on the simulated
// 3.5 GHz clock, so the calibration is direct: 35% overhead ⇒ ~1750
// cycles per PEBS record, +3% ⇒ ~150 cycles for the register file, and
// 529% ⇒ ~26.5k cycles per interrupt-based call-stack sample. See
// DESIGN.md §3.
const (
	// CostPEBSRecord is the cost of the hardware writing one PEBS record.
	CostPEBSRecord = 1750
	// CostRegisterCapture is the extra cost of including the register file.
	CostRegisterCapture = 150
	// CostBufferFlush is the kernel interrupt handler draining the buffer.
	CostBufferFlush = 40000
	// CostCallStackRecord is the base cost of an interrupt-based sample.
	CostCallStackRecord = 26000
	// CostPerFrame is added per call-stack frame walked.
	CostPerFrame = 150
)
