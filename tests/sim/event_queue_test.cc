// EventQueue against a reference: a binary heap ordered by (time, push
// counter), which is the order the simulator's clock needs. Both are driven
// through the same random monotone operations and must agree on every popped
// (time, payload) and on their size after every operation.

#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <queue>
#include <vector>

#include "src/common/rng.h"

namespace pdsp {
namespace {

struct RefEvent {
  double time;
  uint64_t seq;
};

struct RefLater {
  bool operator()(const RefEvent& a, const RefEvent& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

constexpr double kGrid = 0.25;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// A push time no earlier than `last`, the last popped time.
double NextTime(Rng* rng, double last) {
  // Rarely, a far-future time, whose key differs from any time the clock
  // has reached in its top byte.
  if (rng->Bernoulli(2e-4)) return rng->Bernoulli(0.5) ? 1e300 : kInf;
  switch (rng->UniformInt(0, 3)) {
    case 0:  // zero delay: a tie with the current time, -0.0 at the start
      return last == 0.0 && rng->Bernoulli(0.5) ? -0.0 : last;
    case 1:  // one of the next few points of a coarse grid
      return (std::ceil(last / kGrid) +
              static_cast<double>(rng->UniformInt(0, 3))) *
             kGrid;
    case 2:  // a delay log-uniform in [1e-9, 1e6)
      return last + std::pow(10.0, rng->Uniform(-9.0, 6.0));
    default:  // a delay shaped like a link or a hand-off
      return last + (rng->Bernoulli(0.5) ? 150e-6 : 4e-6);
  }
}

struct Coverage {
  int64_t ops = 0;
  int64_t pushes = 0;
  int64_t ties = 0;  // pushes whose time equals a queued event's
  int64_t zero_pushes = 0;
  int64_t negative_zero_pushes = 0;
  int64_t far_pushes = 0;  // at 1e300
  int64_t inf_pushes = 0;
  int64_t top_byte_pushes = 0;  // keys differing from the clock's in byte 7
  int64_t drains = 0;  // times the queue was popped empty
  double min_positive = std::numeric_limits<double>::infinity();
  double max_time = 0.0;
};

/// Drives an EventQueue and the reference through `min_ops` random
/// operations in episodes, each on a fresh pair that starts at time 0 and
/// ends once its clock passes 1e6 (or after its operation budget), drained.
void DriveAgainstReference(uint64_t seed, int64_t min_ops, Coverage* cov) {
  Rng rng(seed);
  while (cov->ops < min_ops) {
    EventQueue<uint64_t> q;
    std::priority_queue<RefEvent, std::vector<RefEvent>, RefLater> ref;
    std::map<double, int> queued;  // queued events per time (-0.0 == 0.0)
    uint64_t seq = 0;
    double last = 0.0;
    bool filling = true;
    auto pop_both = [&] {
      const auto got = q.Pop();
      const RefEvent want = ref.top();
      ref.pop();
      ASSERT_EQ(got.time, want.time);
      ASSERT_EQ(got.payload, want.seq);
      last = want.time;
      if (--queued[want.time] == 0) queued.erase(want.time);
      if (ref.empty()) ++cov->drains;
    };
    const int64_t budget = rng.UniformInt(1'000, 60'000);
    for (int64_t k = 0; k < budget && last < 1e6; ++k) {
      ++cov->ops;
      if (rng.Bernoulli(0.01)) filling = !filling;
      if (!ref.empty() && rng.Bernoulli(2e-4)) {
        // A burst that drains the queue empty.
        while (!ref.empty()) {
          pop_both();
          if (::testing::Test::HasFatalFailure()) return;
          ASSERT_EQ(q.size(), ref.size());
        }
      } else if (ref.empty() || rng.Bernoulli(filling ? 0.6 : 0.35)) {
        const double t = NextTime(&rng, last);
        ++cov->pushes;
        if (queued.count(t) != 0) ++cov->ties;
        if (t == 0.0) ++(std::signbit(t) ? cov->negative_zero_pushes
                                         : cov->zero_pushes);
        if (t == 1e300) ++cov->far_pushes;
        if (t == kInf) ++cov->inf_pushes;
        if (((std::bit_cast<uint64_t>(t + 0.0) ^
              std::bit_cast<uint64_t>(last + 0.0)) >>
             56) != 0) {
          ++cov->top_byte_pushes;
        }
        if (t > 0.0) cov->min_positive = std::min(cov->min_positive, t);
        cov->max_time = std::max(cov->max_time, t);
        ++queued[t];
        q.Push(t, seq);
        ref.push({t, seq});
        ++seq;
      } else {
        pop_both();
        if (::testing::Test::HasFatalFailure()) return;
      }
      ASSERT_EQ(q.size(), ref.size());
      ASSERT_EQ(q.empty(), ref.empty());
    }
    while (!ref.empty()) {
      pop_both();
      if (::testing::Test::HasFatalFailure()) return;
      ASSERT_EQ(q.size(), ref.size());
    }
  }
}

void ExpectMatchesReference(uint64_t seed) {
  Coverage cov;
  ASSERT_NO_FATAL_FAILURE(DriveAgainstReference(seed, 1'000'000, &cov));
  EXPECT_GE(cov.ops, 1'000'000);
  EXPECT_GE(static_cast<double>(cov.ties),
            0.3 * static_cast<double>(cov.pushes));
  EXPECT_GT(cov.zero_pushes, 0);
  EXPECT_GT(cov.negative_zero_pushes, 0);
  EXPECT_GT(cov.far_pushes, 0);
  EXPECT_GT(cov.inf_pushes, 0);
  EXPECT_GT(cov.top_byte_pushes, 100);
  EXPECT_GT(cov.drains, 100);
  EXPECT_LT(cov.min_positive, 1e-8);
  EXPECT_GT(cov.max_time, 1e5);
}

TEST(EventQueueTest, MatchesReferenceHeapSeed42) { ExpectMatchesReference(42); }

TEST(EventQueueTest, MatchesReferenceHeapSeed1009) {
  ExpectMatchesReference(1009);
}

}  // namespace
}  // namespace pdsp
