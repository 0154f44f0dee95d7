#include "core/common.hpp"

#include "util/assert.hpp"

namespace kmm {

std::uint64_t restore_below(WordReader& in, std::uint64_t bound, const char* diagnostic) {
  const std::uint64_t word = in.u64();
  KMM_CHECK_MSG(word < bound, diagnostic);
  return word;
}

bool restore_flag(WordReader& in, const char* diagnostic) {
  return restore_below(in, 2, diagnostic) != 0;
}

std::uint64_t restore_count(WordReader& in, std::size_t words_each, const char* diagnostic) {
  const std::uint64_t count = in.u64();
  KMM_CHECK_MSG(count <= in.remaining() / words_each, diagnostic);
  return count;
}

// A one-word control-plane exchange: the handler work is a few additions,
// far below the pool's barrier cost, so it always runs StepMode::kInline.
// The message sequence is exactly the classic sequential loop's, so the
// ledger is unchanged by the port.

std::uint64_t sum_reduce_broadcast(Runtime& rt,
                                   const std::vector<std::uint64_t>& machine_value,
                                   std::uint32_t tag) {
  const MachineId k = rt.k();
  KMM_CHECK(machine_value.size() == k);
  rt.step(
      [&](MachineId i, std::span<const Message>, Outbox& out) {
        if (i != 0) out.send(0, tag, {machine_value[i]}, 64);
      },
      StepMode::kInline);
  std::uint64_t total = 0;
  rt.step(
      [&](MachineId i, std::span<const Message> inbox, Outbox& out) {
        if (i != 0) return;
        total = machine_value[0];
        for (const auto& msg : inbox) {
          if (msg.tag == tag) total += msg.payload()[0];
        }
        for (MachineId j = 1; j < k; ++j) {
          out.send(j, tag, {total}, 64);
        }
      },
      StepMode::kInline);
  return total;
}

}  // namespace kmm
