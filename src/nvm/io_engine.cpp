#include "nvm/io_engine.h"

#include <algorithm>
#include <stdexcept>

namespace bandana {

NvmIoEngine::NvmIoEngine(const NvmDeviceConfig& cfg, std::uint64_t seed)
    : cfg_(cfg),
      model_(cfg),
      seed_(seed),
      admission_(cfg.channels, cfg.queue_depth) {
  if (cfg.channels == 0) {
    throw std::invalid_argument("NvmIoEngine: channels must be >= 1");
  }
  channels_.resize(cfg.channels);
  for (unsigned c = 0; c < cfg.channels; ++c) {
    channels_[c].rng.reseed(channel_stream_seed(seed, c));
    channels_[c].write_rng.reseed(channel_write_stream_seed(seed, c));
  }
}

void NvmIoEngine::reset() {
  admission_.reset();
  pending_ = {};
  next_id_ = 0;
  delivered_ = 0;
  for (unsigned c = 0; c < channels_.size(); ++c) {
    channels_[c] = Channel();
    channels_[c].rng.reseed(channel_stream_seed(seed_, c));
    channels_[c].write_rng.reseed(channel_write_stream_seed(seed_, c));
  }
}

IoCompletion NvmIoEngine::place(double arrival_us, IoKind kind) {
  // Submission boundary: the admission gate releases the IO at its
  // arrival, or at the earliest outstanding completion when the
  // queue_depth x channels cap is full (the IO takes that slot). Reads
  // and writes hold slots of the same gate.
  const double submit_us = admission_.admit(arrival_us);

  // Route to the per-channel FIFO that drains first. With equal tails the
  // lowest index wins, which matches the legacy dispatch queue's
  // min_element tie-break. Writes join the same FIFOs — that shared queue
  // is the whole interference model.
  Channel* best = &channels_[0];
  for (auto& ch : channels_) {
    if (ch.tail_free_us < best->tail_free_us) best = &ch;
  }
  const unsigned channel = static_cast<unsigned>(best - channels_.data());

  // FIFO service: the IO starts when both it has been released and every
  // earlier IO in this channel's queue has left the media. The fixed
  // submission/completion overhead adds end-to-end latency but overlaps
  // with other IOs (saturated bandwidth stays channels/service, Fig. 2).
  // Each kind draws from its own stream so the interleaving alone — never
  // the draws — couples the two traffic classes.
  const double start_us = std::max(submit_us, best->tail_free_us);
  const double service_us = kind == IoKind::kWrite
                                ? model_.sample_write_service_us(best->write_rng)
                                : model_.sample_service_us(best->rng);
  const double complete_us = start_us + service_us + model_.base_latency_us();
  best->tail_free_us = start_us + service_us;
  if (kind == IoKind::kWrite) {
    best->write_busy_us += service_us;
    ++best->writes;
  } else {
    best->busy_us += service_us;
    ++best->ios;
  }
  admission_.on_submitted(complete_us);

  IoCompletion done;
  done.id = next_id_++;
  done.channel = channel;
  done.kind = kind;
  done.arrival_us = arrival_us;
  done.submit_us = submit_us;
  done.start_us = start_us;
  done.complete_us = complete_us;
  return done;
}

std::uint64_t NvmIoEngine::submit(double arrival_us, IoKind kind) {
  const IoCompletion done = place(arrival_us, kind);
  pending_.push(done);
  return done.id;
}

std::optional<IoCompletion> NvmIoEngine::next_completion() {
  if (pending_.empty()) return std::nullopt;
  IoCompletion done = pending_.top();
  pending_.pop();
  ++delivered_;
  return done;
}

double NvmIoEngine::submit_wave(double arrival_us, std::uint64_t count,
                                std::vector<IoCompletion>* sink, IoKind kind) {
  // The wave's IOs are delivered as they are placed; none goes through
  // the completion heap.
  double max_done = arrival_us;
  for (std::uint64_t i = 0; i < count; ++i) {
    const IoCompletion done = place(arrival_us, kind);
    max_done = std::max(max_done, done.complete_us);
    if (sink != nullptr) sink->push_back(done);
  }
  delivered_ += count;
  // Events queued by earlier submit() calls are delivered with the wave.
  while (auto done = next_completion()) {
    max_done = std::max(max_done, done->complete_us);
    if (sink != nullptr) sink->push_back(*done);
  }
  return max_done;
}

unsigned NvmIoEngine::channels_draining_before(double t_us) const {
  return static_cast<unsigned>(std::ranges::count_if(
      channels_, [t_us](const Channel& ch) { return ch.tail_free_us < t_us; }));
}

IoChannelStats NvmIoEngine::channel_stats(unsigned c) const {
  const Channel& ch = channels_.at(c);
  return {ch.ios, ch.busy_us, ch.tail_free_us, ch.writes, ch.write_busy_us};
}

}  // namespace bandana
