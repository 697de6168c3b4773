#include "emu/golden_trace.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace sfi::emu {

const GoldenTrace::WordAccess* GoldenTrace::first_access(u32 word, u64 bits,
                                                         Cycle after) const {
  const std::vector<WordAccess>& ev = accesses[word];
  auto it = std::upper_bound(
      ev.begin(), ev.end(), after,
      [](Cycle c, const WordAccess& a) { return c < a.cycle; });
  for (; it != ev.end(); ++it) {
    if (((it->reads | it->writes) & bits) != 0) return &*it;
  }
  return nullptr;
}

u64 GoldenTrace::timeline_bytes() const {
  u64 bytes = peek_reads.size() * sizeof(u64);
  for (const auto& ev : accesses) bytes += ev.capacity() * sizeof(WordAccess);
  return bytes;
}

GoldenTrace record_golden_trace(Emulator& emu, Cycle max_cycles,
                                Cycle margin, bool record_states) {
  emu.reset();
  const auto& masks = emu.model().registry().hash_masks();

  GoldenTrace trace;
  trace.hashes.reserve(max_cycles / 4);
  // Keep the masked-state matrix bounded: a pathological workload (10^5+
  // cycles) would otherwise cost gigabytes; past the cap the runner simply
  // falls back to hash compares. The access timeline has the same budget.
  constexpr u64 kMaxStateBytes = 256ull << 20;
  netlist::AccessRecorder rec;
  u64 timeline_events = 0;
  if (record_states) {
    trace.word_stride = static_cast<u32>(emu.state().words().size());
    trace.accesses.resize(trace.word_stride);
    rec.bind(trace.word_stride);
    emu.set_access_recorder(&rec);
  }
  const auto drop_timeline = [&] {
    emu.set_access_recorder(nullptr);
    trace.accesses.clear();
    trace.accesses.shrink_to_fit();
  };

  Cycle extra = 0;
  for (Cycle c = 0; c < max_cycles; ++c) {
    const bool timed = !trace.completed && !trace.accesses.empty();
    if (timed) rec.begin_cycle();
    emu.step();
    if (timed) {
      // One event per touched word: the read list first, then the words
      // this step only wrote.
      const Cycle now = emu.cycle();
      for (const u32 w : rec.read_words()) {
        trace.accesses[w].push_back({rec.reads()[w], rec.writes()[w], now});
      }
      for (const u32 w : rec.write_words()) {
        if (rec.reads()[w] == 0) {
          trace.accesses[w].push_back({0, rec.writes()[w], now});
        }
      }
      // Each word in both lists is counted twice: a cap, not a size.
      timeline_events += rec.read_words().size() + rec.write_words().size();
      if (timeline_events * sizeof(GoldenTrace::WordAccess) > kMaxStateBytes) {
        drop_timeline();
      }
    }
    trace.hashes.push_back(emu.state().masked_hash(masks));
    if (trace.word_stride != 0) {
      if ((trace.masked_words.size() + trace.word_stride) * sizeof(u64) >
          kMaxStateBytes) {
        trace.word_stride = 0;
        trace.masked_words.clear();
        trace.masked_words.shrink_to_fit();
        drop_timeline();
      } else {
        const auto words = emu.state().words();
        for (std::size_t i = 0; i < words.size(); ++i) {
          trace.masked_words.push_back(words[i] & masks[i]);
        }
      }
    }
    // A clean RAS window on every cycle is what lets an injected run that
    // equals the reference (plus bits nobody reads) be classified without
    // simulating it.
    const RasStatus ras = emu.model().ras_status(emu.state());
    ensure(!ras.checkstop && !ras.hang_detected && !ras.recovery_active &&
               ras.recovery_count == 0 && ras.corrected_count == 0,
           "golden run reported an error: the fault-free model is broken");
    if (ras.test_finished) {
      if (!trace.completed) {
        trace.completed = true;
        trace.completion_cycle = emu.cycle();
        trace.final_state = emu.model().arch_state(emu.state());
      }
      if (++extra >= margin) break;
    }
  }
  if (!trace.accesses.empty()) {
    for (auto& ev : trace.accesses) ev.shrink_to_fit();
    // The peek probe: what the classifier reads of the latch state.
    rec.begin_cycle();
    (void)emu.model().ras_status(emu.state());
    (void)emu.model().arch_state(emu.state());
    trace.peek_reads.assign(trace.word_stride, 0);
    for (const u32 w : rec.read_words()) trace.peek_reads[w] = rec.reads()[w];
  }
  emu.set_access_recorder(nullptr);
  return trace;
}

}  // namespace sfi::emu
