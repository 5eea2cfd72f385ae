// Fig. 2: latency and bandwidth of the NVM device for a 4 KB random-read
// workload at queue depths 1..16 (closed loop, as Fio with libaio).
//
// Runs on the event-driven per-channel NvmIoEngine: bandwidth saturates
// past `channels` outstanding IOs, and latency then grows with queueing
// delay. The next table reports per-channel service counters from the
// engine.
#include "bench_common.h"
#include "nvm/io_engine.h"

using namespace bandana;
using namespace bandana::bench;

int main(int argc, char** argv) {
  parse_bench_args(argc, argv);
  print_header("Figure 2: NVM latency/bandwidth vs queue depth",
               "paper Fig. 2 (375 GB device: ~10 us & 0.5 GB/s at QD1 -> "
               "~2.3 GB/s at QD8 with latency in the tens of us)",
               "simulated device, 200k IOs per depth; per-channel engine");

  const NvmDeviceConfig cfg;
  const std::uint64_t ios_per_depth = scaled64(200'000);
  TablePrinter t({"queue_depth", "mean_us", "p99_us", "bandwidth_GB/s"});
  for (unsigned qd : {1u, 2u, 4u, 8u, 16u}) {
    const auto r = run_closed_loop(cfg, qd, ios_per_depth, /*seed=*/7);
    t.add_row({std::to_string(qd), TablePrinter::fmt(r.latency_us.mean(), 1),
               TablePrinter::fmt(r.latency_us.percentile(0.99), 1),
               TablePrinter::fmt(
                   r.bandwidth_bytes_per_s(cfg.block_bytes) / 1e9, 2)});
  }
  t.print();
  std::printf(
      "\nShape check: bandwidth rises with queue depth and saturates near "
      "%.2f GB/s;\nlatency is flat while channels are idle, then grows with "
      "queueing delay.\n",
      cfg.peak_bandwidth_bytes_per_s() / 1e9);

  // Per-channel service balance at saturation, straight from the engine's
  // event records.
  std::printf("\nper-channel balance at QD16 (engine, 100k IOs):\n\n");
  NvmIoEngine engine(cfg, 7);
  std::uint64_t issued = 0;
  const std::uint64_t num_ios = scaled64(100'000);
  for (unsigned i = 0; i < 16 && issued < num_ios; ++i, ++issued) {
    engine.submit(0.0);
  }
  while (auto done = engine.next_completion()) {
    if (issued < num_ios) {
      engine.submit(done->complete_us);
      ++issued;
    }
  }
  TablePrinter c({"channel", "ios", "share", "busy_share"});
  double total_busy = 0.0;
  for (unsigned ch = 0; ch < engine.channels(); ++ch) {
    total_busy += engine.channel_stats(ch).busy_us;
  }
  for (unsigned ch = 0; ch < engine.channels(); ++ch) {
    const auto stats = engine.channel_stats(ch);
    c.add_row({std::to_string(ch), std::to_string(stats.ios),
               pct(static_cast<double>(stats.ios) /
                   static_cast<double>(num_ios)),
               pct(stats.busy_us / total_busy)});
  }
  c.print();
  std::printf(
      "\nJoin-shortest-FIFO routing keeps the channels balanced; with a "
      "bounded\nqueue_depth the admission gate, not the channel queues, "
      "absorbs bursts.\n");

  // Write-aware channel view: the same closed read loop with a background
  // write injected every k-th completion (republish traffic). Writes join
  // the identical FIFOs, so read latency inflates with the write share —
  // contention the read-only dispatch queue could never show.
  std::printf(
      "\nmixed read/write closed loop at QD8 (one write per k reads, "
      "%llu reads;\nmean write service %.1f us = %.1fx the %.1f us mean "
      "read service):\n\n",
      static_cast<unsigned long long>(num_ios), cfg.mean_write_service_us(),
      cfg.mean_write_service_us() / cfg.mean_service_us(),
      cfg.mean_service_us());
  TablePrinter mixed({"reads_per_write", "write_share", "read_mean_us",
                      "read_p99_us", "read_GB/s"});
  for (const unsigned k : {0u, 16u, 8u, 4u, 2u}) {
    NvmIoEngine mixed_engine(cfg, 7);
    std::uint64_t reads_issued = 0, writes_issued = 0, completed_reads = 0;
    LatencyRecorder read_lat;
    double end_time = 0.0;
    for (unsigned i = 0; i < 8 && reads_issued < num_ios; ++i, ++reads_issued) {
      mixed_engine.submit(0.0);
    }
    while (auto done = mixed_engine.next_completion()) {
      end_time = std::max(end_time, done->complete_us);
      if (done->kind == IoKind::kWrite) continue;
      read_lat.add(done->latency_us());
      ++completed_reads;
      if (reads_issued < num_ios) {
        mixed_engine.submit(done->complete_us);
        ++reads_issued;
        if (k != 0 && completed_reads % k == 0) {
          mixed_engine.submit(done->complete_us, IoKind::kWrite);
          ++writes_issued;
        }
      }
    }
    const double share =
        static_cast<double>(writes_issued) /
        static_cast<double>(writes_issued + reads_issued);
    mixed.add_row(
        {k == 0 ? "read-only" : std::to_string(k), pct(share),
         TablePrinter::fmt(read_lat.mean(), 1),
         TablePrinter::fmt(read_lat.percentile(0.99), 1),
         TablePrinter::fmt(static_cast<double>(completed_reads) *
                               cfg.block_bytes / (end_time * 1e-6) / 1e9,
                           2)});
  }
  mixed.print();
  std::printf(
      "\nEvery write occupies a channel for its (longer) service time and "
      "holds an\nadmission slot, so read tail latency and read bandwidth "
      "degrade as the write\nshare grows — the paper's republish "
      "interference, now first-class in the model.\n");

  // Steady-state write share under a TRICKLE republish: the same closed
  // read loop, but the writer is rate-limited by simulated time
  // (TrickleRateLimiter: at most blocks_per_interval writes per
  // interval_us), the way Store::begin_trickle_republish pushes a
  // retrained table. The device sees a bounded, steady write share
  // instead of a one-shot wave.
  const double trickle_interval_us = 50.0;
  std::printf(
      "\nsteady-state trickle write share at QD8 (rate limiter: N blocks "
      "per %.0f us of\nsimulated time, %llu reads):\n\n",
      trickle_interval_us, static_cast<unsigned long long>(num_ios));
  TablePrinter trickle({"blocks/interval", "write_share", "read_mean_us",
                        "read_p99_us", "read_GB/s"});
  for (const std::uint32_t bpi : {0u, 2u, 8u, 32u}) {
    NvmIoEngine engine_t(cfg, 7);
    TrickleRateLimiter limiter(RepublishConfig{bpi, trickle_interval_us});
    std::uint64_t reads_issued = 0, writes_issued = 0, completed_reads = 0;
    LatencyRecorder read_lat;
    double end_time = 0.0;
    for (unsigned i = 0; i < 8 && reads_issued < num_ios; ++i, ++reads_issued) {
      engine_t.submit(0.0);
    }
    while (auto done = engine_t.next_completion()) {
      end_time = std::max(end_time, done->complete_us);
      if (done->kind == IoKind::kWrite) continue;
      read_lat.add(done->latency_us());
      ++completed_reads;
      if (reads_issued >= num_ios) continue;
      engine_t.submit(done->complete_us);
      ++reads_issued;
      // The trickle writer drains its interval allowance as simulated
      // time passes — one write per read completion at most, so the
      // writes spread across the interval instead of bunching.
      if (bpi != 0 && limiter.allowance(done->complete_us) > 0) {
        limiter.consume(done->complete_us, 1);
        engine_t.submit(done->complete_us, IoKind::kWrite);
        ++writes_issued;
      }
    }
    const double share =
        writes_issued == 0
            ? 0.0
            : static_cast<double>(writes_issued) /
                  static_cast<double>(writes_issued + reads_issued);
    trickle.add_row(
        {bpi == 0 ? "read-only" : std::to_string(bpi), pct(share),
         TablePrinter::fmt(read_lat.mean(), 1),
         TablePrinter::fmt(read_lat.percentile(0.99), 1),
         TablePrinter::fmt(static_cast<double>(completed_reads) *
                               cfg.block_bytes / (end_time * 1e-6) / 1e9,
                           2)});
  }
  trickle.print();
  std::printf(
      "\nThe rate limit caps the steady-state write share (and therefore "
      "the read-p99\ninflation) independent of how large the retrained "
      "table is — the knob the\ntrickle republish sweep in bench_fig05 "
      "turns end to end.\n");
  return 0;
}
