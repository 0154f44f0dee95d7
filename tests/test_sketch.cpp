// One-sparse recovery cells and the l0-sampler: recovery, linearity,
// cancellation, serialization, failure rates.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "sketch/l0_sampler.hpp"
#include "sketch/sketch_pool.hpp"
#include "util/prime_field.hpp"
#include "util/random.hpp"

namespace kmm {
namespace {

constexpr std::uint64_t kUniverse = 1 << 20;

std::uint64_t rpow(std::uint64_t r, std::uint64_t i) { return fp::pow(r, i); }

TEST(OneSparse, RecoversSingleEntry) {
  const std::uint64_t r = 987654321;
  for (const int value : {1, -1}) {
    OneSparseCell cell;
    cell.update(777, value, rpow(r, 777));
    const auto rec = cell.recover(r, kUniverse);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->index, 777u);
    EXPECT_EQ(rec->value, value);
  }
}

TEST(OneSparse, RejectsTwoEntries) {
  const std::uint64_t r = 13371337;
  OneSparseCell cell;
  cell.update(10, 1, rpow(r, 10));
  cell.update(20, 1, rpow(r, 20));
  EXPECT_FALSE(cell.recover(r, kUniverse).has_value());
}

TEST(OneSparse, RejectsCancelingPairPlusOne) {
  // s0 == 1 but the vector has three nonzero contributions: the
  // fingerprint must reject.
  const std::uint64_t r = 555666777;
  OneSparseCell cell;
  cell.update(10, 1, rpow(r, 10));
  cell.update(20, 1, rpow(r, 20));
  cell.update(30, -1, rpow(r, 30));
  EXPECT_EQ(cell.s0(), 1);
  EXPECT_FALSE(cell.recover(r, kUniverse).has_value());
}

TEST(OneSparse, CancellationGivesZero) {
  const std::uint64_t r = 42424242;
  OneSparseCell cell;
  cell.update(99, 1, rpow(r, 99));
  cell.update(99, -1, rpow(r, 99));
  EXPECT_TRUE(cell.all_zero());
  EXPECT_FALSE(cell.recover(r, kUniverse).has_value());
}

TEST(OneSparse, AddIsLinear) {
  const std::uint64_t r = 31415926;
  OneSparseCell a, b, direct;
  a.update(5, 1, rpow(r, 5));
  b.update(9, -1, rpow(r, 9));
  direct.update(5, 1, rpow(r, 5));
  direct.update(9, -1, rpow(r, 9));
  a.add(b);
  EXPECT_EQ(a.s0(), direct.s0());
  EXPECT_EQ(a.s1(), direct.s1());
  EXPECT_EQ(a.s2(), direct.s2());
}

TEST(OneSparse, RawRoundtrip) {
  const std::uint64_t r = 2718281828;
  OneSparseCell cell;
  cell.update(123, -1, rpow(r, 123));
  OneSparseCell copy;
  copy.add_raw(cell.s0(), cell.s1(), cell.s2());
  const auto rec = copy.recover(r, kUniverse);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->index, 123u);
}

TEST(OneSparse, WireBitsGrowWithUniverse) {
  EXPECT_GT(OneSparseCell::wire_bits(1 << 30), OneSparseCell::wire_bits(1 << 10));
  EXPECT_GE(OneSparseCell::wire_bits(16), 2 * 61u);
}

L0Sampler make_sampler(std::uint64_t seed) {
  return L0Sampler(kUniverse, L0Params::for_universe(kUniverse), seed);
}

// Serialize both sides and compare every word — wire-bit equality, the
// property the golden ledger relies on.
std::vector<std::uint64_t> wire_words(const L0Sampler& s) {
  WordWriter w;
  s.serialize(w);
  return std::move(w).take();
}

TEST(L0, EmptyIsZero) {
  const auto s = make_sampler(1);
  EXPECT_TRUE(s.is_zero());
  EXPECT_FALSE(s.sample().has_value());
  // Compact wire form of the zero vector: one zero length word per copy.
  EXPECT_EQ(wire_words(s), std::vector<std::uint64_t>(
                               static_cast<std::size_t>(s.params().copies), 0));
}

TEST(L0, SingleItemRecoveredExactly) {
  auto s = make_sampler(2);
  s.update(4242, 1);
  EXPECT_FALSE(s.is_zero());
  const auto rec = s.sample();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->index, 4242u);
  EXPECT_EQ(rec->value, 1);
}

TEST(L0, SampleReturnsSupportMember) {
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    auto s = make_sampler(split(991, trial));
    std::set<std::uint64_t> support;
    const int size = 1 + static_cast<int>(rng.next_below(200));
    while (static_cast<int>(support.size()) < size) {
      support.insert(rng.next_below(kUniverse));
    }
    for (const auto idx : support) s.update(idx, 1);
    const auto rec = s.sample();
    ASSERT_TRUE(rec.has_value()) << "sampler failed on support size " << size;
    EXPECT_TRUE(support.count(rec->index)) << "sampled a non-support index";
    EXPECT_EQ(rec->value, 1);
  }
}

TEST(L0, MixedSignsStillValid) {
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    auto s = make_sampler(split(772, trial));
    std::map<std::uint64_t, int> entries;
    for (int i = 0; i < 100; ++i) {
      entries.emplace(rng.next_below(kUniverse), rng.next_bool(0.5) ? 1 : -1);
    }
    for (const auto& [idx, val] : entries) s.update(idx, val);
    const auto rec = s.sample();
    ASSERT_TRUE(rec.has_value());
    const auto it = entries.find(rec->index);
    ASSERT_NE(it, entries.end());
    EXPECT_EQ(rec->value, it->second);
  }
}

TEST(L0, LinearityExact) {
  Rng rng(7);
  const std::uint64_t seed = 404;
  auto a = make_sampler(seed);
  auto b = make_sampler(seed);
  auto direct = make_sampler(seed);
  for (int i = 0; i < 300; ++i) {
    const auto idx = rng.next_below(kUniverse);
    const int val = rng.next_bool(0.5) ? 1 : -1;
    if (i % 2 == 0) {
      a.update(idx, val);
    } else {
      b.update(idx, val);
    }
    direct.update(idx, val);
  }
  a.add(b);
  WordWriter wa, wd;
  a.serialize(wa);
  direct.serialize(wd);
  EXPECT_EQ(std::move(wa).take(), std::move(wd).take());
}

TEST(L0, CancellationToZero) {
  Rng rng(9);
  const std::uint64_t seed = 505;
  auto a = make_sampler(seed);
  auto b = make_sampler(seed);
  std::vector<std::uint64_t> idxs;
  for (int i = 0; i < 100; ++i) idxs.push_back(rng.next_below(kUniverse));
  for (const auto idx : idxs) a.update(idx, 1);
  for (const auto idx : idxs) b.update(idx, -1);
  a.add(b);
  EXPECT_TRUE(a.is_zero());
  EXPECT_FALSE(a.sample().has_value());
  // Every touched cell cancelled: the canonical form is the empty sketch's.
  EXPECT_EQ(wire_words(a), wire_words(make_sampler(seed)));
}

TEST(L0, PartialCancellationLeavesRest) {
  const std::uint64_t seed = 606;
  auto a = make_sampler(seed);
  // The cancelled index reaches a higher level than the survivor, so the
  // sum's used prefix ends in cells that cancelled to zero.
  std::uint64_t gone = 101;
  while (a.level_of(gone, 0) <= a.level_of(200, 0)) ++gone;
  a.update(gone, 1);
  a.update(200, 1);
  auto b = make_sampler(seed);
  b.update(gone, -1);
  a.add(b);
  const auto rec = a.sample();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->index, 200u);
  // Canonical wire form: trailing zero cells are trimmed, so the sum
  // serializes exactly like a sketch built from the survivor alone.
  auto direct = make_sampler(seed);
  direct.update(200, 1);
  EXPECT_EQ(wire_words(a), wire_words(direct));
}

TEST(L0, SerializeDeserializeRoundtrip) {
  Rng rng(11);
  auto s = make_sampler(707);
  for (int i = 0; i < 50; ++i) s.update(rng.next_below(kUniverse), 1);
  WordWriter w;
  s.serialize(w);
  const auto words = std::move(w).take();
  WordReader r(words);
  const auto copy =
      L0Sampler::deserialize(kUniverse, L0Params::for_universe(kUniverse), 707, r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(wire_words(copy), words);
  const auto s1 = s.sample();
  const auto s2 = copy.sample();
  ASSERT_TRUE(s1.has_value());
  ASSERT_TRUE(s2.has_value());
  EXPECT_EQ(s1->index, s2->index);
}

TEST(L0, CompactWireLength) {
  // Each copy ships its used prefix — levels 0..max level_of over the
  // support (all +1, so the top cell cannot cancel) — plus a length word.
  Rng rng(23);
  for (const int copies : {1, 3}) {
    for (const int support : {0, 1, 200}) {
      L0Sampler s(kUniverse, L0Params::for_universe(kUniverse, copies),
                  split(47, static_cast<std::uint64_t>(copies * 1000 + support)));
      std::set<std::uint64_t> idxs;
      while (static_cast<int>(idxs.size()) < support) idxs.insert(rng.next_below(kUniverse));
      std::size_t prefix_cells = 0;
      for (int c = 0; c < copies; ++c) {
        int top = -1;
        for (const auto idx : idxs) top = std::max(top, s.level_of(idx, c));
        prefix_cells += static_cast<std::size_t>(top + 1);
      }
      for (const auto idx : idxs) s.update(idx, 1);
      const auto words = wire_words(s);
      EXPECT_EQ(words.size(), static_cast<std::size_t>(copies) + 3 * prefix_cells)
          << "copies=" << copies << " support=" << support;
      EXPECT_LE(words.size(), s.max_wire_words());
    }
  }
}

TEST(L0, AddSerializedMatchesDeserializeAdd) {
  // Randomized sketches: merging the wire form directly must be bit-exact
  // with materializing the sketch and adding it.
  Rng rng(29);
  for (const int copies : {1, 3}) {
    const auto params = L0Params::for_universe(kUniverse, copies);
    for (const int support : {0, 1, 200}) {
      for (int trial = 0; trial < 5; ++trial) {
        const std::uint64_t seed = split(71, static_cast<std::uint64_t>(support * 10 + trial));
        L0Sampler incoming(kUniverse, params, seed);
        for (int i = 0; i < support; ++i) {
          incoming.update(rng.next_below(kUniverse), (i & 3) == 0 ? -1 : 1);
        }
        WordWriter w;
        w.u64(0x10be1);  // leading non-cell word, as on the engine's wire
        incoming.serialize(w);
        const auto words = std::move(w).take();

        // Identical nonzero accumulators; only the merge path differs.
        L0Sampler acc_a(kUniverse, params, seed);
        L0Sampler acc_b(kUniverse, params, seed);
        const std::uint64_t shared_index = rng.next_below(kUniverse);
        acc_a.update(shared_index, 1);
        acc_b.update(shared_index, 1);

        WordReader ra(words);
        (void)ra.u64();
        acc_a.add(L0Sampler::deserialize(kUniverse, params, seed, ra));
        EXPECT_TRUE(ra.done());

        WordReader rb(words);
        (void)rb.u64();
        EXPECT_TRUE(acc_b.add_serialized(rb));
        EXPECT_TRUE(rb.done());

        EXPECT_EQ(wire_words(acc_a), wire_words(acc_b));
        const auto sa = acc_a.sample();
        const auto sb = acc_b.sample();
        ASSERT_EQ(sa.has_value(), sb.has_value());
        if (sa.has_value()) {
          EXPECT_EQ(sa->index, sb->index);
        }
      }
    }
  }
}

TEST(L0, AddSerializedCancelsLikeAdd) {
  // Two parts of one component cancel their shared edge when merged on the
  // wire, exactly as with add().
  const auto params = L0Params::for_universe(kUniverse);
  L0Sampler a(kUniverse, params, 31), b(kUniverse, params, 31);
  a.update(1234, 1);
  a.update(999, 1);
  b.update(1234, -1);
  L0Sampler acc(kUniverse, params, 31);
  const auto words_a = wire_words(a);
  const auto words_b = wire_words(b);
  WordReader ra(words_a);
  EXPECT_TRUE(acc.add_serialized(ra));
  WordReader rb(words_b);
  EXPECT_TRUE(acc.add_serialized(rb));
  const auto rec = acc.sample();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->index, 999u);
}

TEST(L0, ResetZeroesAndRebinds) {
  const auto params = L0Params::for_universe(kUniverse);
  L0Sampler s(kUniverse, params, 41);
  s.update(777, 1);
  EXPECT_FALSE(s.is_zero());
  for (int i = 0; i < 300; ++i) s.update(static_cast<std::uint64_t>(1000 + 7 * i), -1);
  s.reset(43);
  EXPECT_TRUE(s.is_zero());
  EXPECT_EQ(s.seed(), 43u);
  // After reset the sampler behaves like a fresh seed-43 sketch.
  L0Sampler fresh(kUniverse, params, 43);
  s.update(555, 1);
  fresh.update(555, 1);
  EXPECT_EQ(wire_words(s), wire_words(fresh));
}

TEST(L0, PooledSamplerReusedAfterLargeSketchMatchesFresh) {
  // reset() zeroes only the used prefixes; a recycled sampler must still
  // carry no stale cell from the large sketch it held before.
  Rng rng(53);
  const auto params = L0Params::for_universe(kUniverse);
  SketchPool pool;
  L0Sampler& large = pool.acquire(kUniverse, params, 61);
  for (int i = 0; i < 2000; ++i) large.update(rng.next_below(kUniverse), 1);
  L0Sampler other(kUniverse, params, 61);
  for (int i = 0; i < 500; ++i) other.update(rng.next_below(kUniverse), -1);
  const auto other_words = wire_words(other);
  WordReader r(other_words);
  ASSERT_TRUE(large.add_serialized(r));
  pool.release_all();

  L0Sampler& reused = pool.acquire(kUniverse, params, 67);
  EXPECT_EQ(&reused, &large);
  L0Sampler fresh(kUniverse, params, 67);
  for (const std::uint64_t idx : {5u, 77u}) {
    reused.update(idx, 1);
    fresh.update(idx, 1);
  }
  EXPECT_EQ(wire_words(reused), wire_words(fresh));
  EXPECT_EQ(wire_words(reused).size(), wire_words(fresh).size());
}

TEST(L0, MalformedPayloadRejectedWithoutSideEffects) {
  const auto params = L0Params::for_universe(kUniverse);
  const auto copies = static_cast<std::size_t>(params.copies);
  L0Sampler acc(kUniverse, params, 83);
  acc.update(4242, 1);
  acc.update(99, -1);
  const auto before = wire_words(acc);

  L0Sampler nonempty(kUniverse, params, 83);
  nonempty.update(1234, 1);
  const auto valid = wire_words(nonempty);
  ASSERT_GT(valid.size(), copies);

  const auto expect_rejected = [&](const std::vector<std::uint64_t>& payload,
                                   const char* what) {
    WordReader r(payload);
    EXPECT_FALSE(acc.add_serialized(r)) << what;
    EXPECT_EQ(r.remaining(), payload.size()) << what << ": reader advanced";
    EXPECT_EQ(wire_words(acc), before) << what << ": accumulator changed";
  };

  auto too_long = valid;
  too_long[0] = static_cast<std::uint64_t>(params.levels) + 1;
  expect_rejected(too_long, "length > levels");

  expect_rejected(std::vector<std::uint64_t>(valid.begin(), valid.begin() + copies - 1),
                  "truncated header");
  expect_rejected(std::vector<std::uint64_t>(valid.begin(), valid.end() - 1),
                  "truncated body");

  // FaultPlane's corrupt profile XORs a payload's last word; on an empty
  // sketch that word is a length header.
  for (const std::uint64_t mask : {std::uint64_t{1}, std::uint64_t{0x5a5a5a5a5a5a5a5a}}) {
    auto tampered = wire_words(L0Sampler(kUniverse, params, 83));
    tampered.back() ^= mask;
    expect_rejected(tampered, "xor of an empty sketch's last word");
  }

  // The accumulator still merges well-formed payloads afterwards.
  WordReader r(valid);
  EXPECT_TRUE(acc.add_serialized(r));
  EXPECT_TRUE(r.done());
}

TEST(L0, FingerprintBaseForMatchesInstance) {
  const L0Sampler s(kUniverse, L0Params::for_universe(kUniverse), 97);
  for (int c = 0; c < s.params().copies; ++c) {
    EXPECT_EQ(L0Sampler::fingerprint_base_for(97, c), s.fingerprint_base(c));
  }
}

TEST(L0, SuccessRateHigh) {
  Rng rng(13);
  int failures = 0;
  constexpr int kTrials = 300;
  for (int trial = 0; trial < kTrials; ++trial) {
    auto s = make_sampler(split(808, trial));
    const int size = 1 + static_cast<int>(rng.next_below(1000));
    for (int i = 0; i < size; ++i) s.update(rng.next_below(kUniverse), 1);
    if (!s.sample().has_value()) ++failures;
  }
  // Three independent copies: empirical failure rate stays in low percent.
  EXPECT_LE(failures, kTrials / 20);
}

TEST(L0, SampleSpreadsOverSupport) {
  // Across independent seeds, every element of a small support should be
  // sampled at least once — a coarse uniformity check.
  constexpr int kSupport = 8;
  std::set<std::uint64_t> hit;
  for (int seed = 0; seed < 200 && hit.size() < kSupport; ++seed) {
    auto s = make_sampler(split(909, seed));
    for (std::uint64_t i = 0; i < kSupport; ++i) s.update(1000 + i, 1);
    if (const auto rec = s.sample()) hit.insert(rec->index);
  }
  EXPECT_EQ(hit.size(), kSupport);
}

TEST(L0, WireBitsMatchParams) {
  const auto s = make_sampler(1);
  const auto& params = s.params();
  EXPECT_EQ(s.wire_bits(),
            static_cast<std::uint64_t>(params.cells()) * OneSparseCell::wire_bits(kUniverse));
  // O(polylog): a few hundred field elements at most for this universe.
  EXPECT_LT(s.wire_bits(), 50'000u);
}

TEST(L0Death, MismatchedCombineRejected) {
  auto a = make_sampler(1);
  auto b = make_sampler(2);  // different seed
  EXPECT_DEATH(a.add(b), "different construction");
}

TEST(L0Death, UpdateOutsideUniverse) {
  auto a = make_sampler(1);
  EXPECT_DEATH(a.update(kUniverse + 5, 1), "outside universe");
}

TEST(L0Params, LevelsCoverUniverse) {
  const auto p = L0Params::for_universe(1ULL << 32);
  EXPECT_GE(p.levels, 32);
  const auto small = L0Params::for_universe(16);
  EXPECT_GE(small.levels, 4);
  EXPECT_EQ(small.cells(), small.levels * small.copies);
}

}  // namespace
}  // namespace kmm
