// The host-speed references of the benchmark. A shared virtual machine runs
// this process at speeds up to about 2x apart, each held for seconds to
// minutes, and moves every timed figure with them. The benchmark therefore
// times fixed blocks of arithmetic next to the work it measures and reports
// timed figures scaled to a nominal host, on which each block takes
// kNominalBlockUs. The blocks are the benchmark's own code and use nothing
// from the library, so a change to the library moves a scaled figure
// exactly as it moves the raw one. Changing a block or the nominal time
// rescales the timed figures: that is a benchmark change.
//
// Two blocks, because the host's speed changes do not hit all code alike.
// From one slow spell to one fast spell on a 4-vCPU Xeon guest, the
// int8/fp32 frame path sped up about 1.9x, the throughput block about 2.0x,
// the OSP job's CPU time about 1.5x, and the clock chain about 1.3x:
//  - the throughput block (dense fp32 and int8 layers, L2-resident) follows
//    the frame path, which is throughput-bound vector code;
//  - the clock chain (dependent scalar multiply-adds) follows only the core
//    clock; the OSP job mixes scalar, vector and memory-bound work, and is
//    scaled by the clock alone, which leaves part of its change unscaled
//    rather than over-correcting it.
#pragma once

namespace perfbench {

/// Duration of either reference block on the nominal host, in microseconds.
inline constexpr double kNominalBlockUs = 500.0;

/// Runs the throughput block on the calling thread; wall microseconds.
double throughput_block_us();

/// Runs the clock chain on every pool thread at once, a few times; the
/// median over rounds of the mean over threads, in wall microseconds.
double clock_us_all_threads();

/// Factor that scales a time measured while a reference block took
/// `block_us` to the nominal host.
inline double nominal_scale(double block_us) {
  return kNominalBlockUs / block_us;
}

}  // namespace perfbench
