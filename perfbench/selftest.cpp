// Self-test of the statistics helpers (stats.hpp). run.py runs it before
// every measurement, so a broken percentile or rate can never reach a
// reported figure.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "perfbench/harness.hpp"

namespace perfbench {
namespace {

struct SelfTest {
  std::size_t run = 0;
  std::size_t failed = 0;

  void expect(bool ok, const std::string& what) {
    ++run;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "self-test FAILED: %s\n", what.c_str());
    }
  }

  template <class Fn>
  void expect_throws(Fn&& fn, const std::string& what) {
    bool threw = false;
    try {
      fn();
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    expect(threw, what + " throws");
  }
};

std::vector<double> one_to(std::size_t n) {
  std::vector<double> values;
  for (std::size_t i = 1; i <= n; ++i) values.push_back(static_cast<double>(i));
  return values;
}

}  // namespace

int run_self_test() {
  SelfTest t;

  // Nearest rank: ceil(p * n / 100), clamped into [1, n].
  t.expect(nearest_rank(1, 50) == 1 && nearest_rank(1, 99) == 1,
           "one sample is every percentile");
  t.expect(nearest_rank(4, 50) == 2 && nearest_rank(5, 50) == 3,
           "median rank is ceil(n/2)");
  t.expect(nearest_rank(100, 99) == 99 && nearest_rank(101, 99) == 100,
           "p99 rank is ceil(0.99 n)");
  t.expect(nearest_rank(7, 100) == 7, "p100 is the maximum");
  t.expect_throws([] { nearest_rank(0, 50); }, "rank of an empty sample");
  t.expect_throws([] { nearest_rank(10, 0); }, "rank of percentile 0");
  t.expect_throws([] { nearest_rank(10, 101); }, "rank of percentile 101");

  // Median and p99 of 1..n; the input order does not matter.
  t.expect(median({3.0, 1.0, 2.0}) == 2.0, "median of an odd sample");
  t.expect(median({4.0, 1.0, 3.0, 2.0}) == 2.0,
           "median of an even sample is the lower middle");
  t.expect(percentile_sorted(one_to(1000), 99) == 990.0, "p99 of 1..1000");
  t.expect(percentile_sorted(one_to(1000), 50) == 500.0, "p50 of 1..1000");
  t.expect_throws([] { median({}); }, "median of an empty sample");

  // The interquartile mean drops floor(n/4) values at each end.
  t.expect(interquartile_mean({5.0}) == 5.0 &&
               interquartile_mean({1.0, 3.0, 2.0}) == 2.0,
           "interquartile mean of fewer than 4 values is their mean");
  t.expect(interquartile_mean({100.0, 2.0, 3.0, -50.0}) == 2.5,
           "interquartile mean of 4 values drops the extremes");
  t.expect(interquartile_mean({1, 1, 1, 1, 3, 3, 3, 3}) == 2.0 &&
               interquartile_mean({1, 1, 1, 3, 3, 3, 3, 3}) == 2.5,
           "interquartile mean moves with the mix of a two-mode sample");
  t.expect_throws([] { interquartile_mean({}); },
                  "interquartile mean of an empty sample");

  // A percentile is reported only with >= 10 samples beyond it.
  t.expect(samples_beyond(1000, 99) == 10, "1000 samples leave 10 beyond p99");
  t.expect(samples_beyond(999, 99) == 9, "999 samples leave 9 beyond p99");
  t.expect(reportable_percentile(one_to(1000), 99) == 990.0,
           "p99 of 1000 samples is reported");
  t.expect(!reportable_percentile(one_to(999), 99).has_value(),
           "p99 of 999 samples is withheld");
  t.expect(!reportable_percentile(one_to(100), 99).has_value(),
           "p99 of 100 samples is withheld");
  t.expect(reportable_percentile(one_to(20), 50) == 10.0,
           "p50 of 20 samples is reported");
  t.expect(!reportable_percentile(one_to(19), 50).has_value(),
           "p50 of 19 samples leaves 9 beyond and is withheld");
  t.expect(!reportable_percentile({}, 50).has_value(),
           "nothing is reported for an empty sample");

  // Failures count against attempts; a failure is also an attempt.
  Tally tally;
  tally.record(true);
  tally.record(false);
  tally.record(true);
  tally.record(true);
  t.expect(tally.attempted == 4 && tally.failed == 1,
           "tally counts every attempt and each failure");
  t.expect(rate(tally.failed, tally.attempted) == 0.25,
           "one failure in four attempts is a rate of 0.25");
  t.expect(rate(0, 12) == 0.0 && rate(12, 12) == 1.0, "rate bounds");
  t.expect_throws([] { rate(1, 0); }, "rate over zero attempts");
  t.expect_throws([] { rate(3, 2); }, "more events than attempts");

  std::printf("self-test: %zu checks, %zu failed\n", t.run, t.failed);
  return t.failed == 0 ? 0 : 1;
}

}  // namespace perfbench
