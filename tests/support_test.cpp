// Tests for the support utilities: hashing/RNG quality properties, the
// bench table formatter, the check macros, the text-format line reader and
// the parallel loop of the topology builds.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "support/check.hpp"
#include "support/flat_map.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/text_file.hpp"

namespace diva::support {
namespace {

TEST(Rng, SplitMixIsDeterministicPerSeed) {
  SplitMix64 a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    EXPECT_NE(va, c.next());  // astronomically unlikely to collide
  }
}

TEST(Rng, BelowIsInRangeAndCoversValues) {
  SplitMix64 rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.below(13);
    ASSERT_LT(v, 13u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 13u) << "all residues should appear in 2000 draws";
}

TEST(Rng, BelowEdgeCases) {
  SplitMix64 rng(1);
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, UniformIsInHalfOpenInterval) {
  SplitMix64 rng(9);
  double lo = 1.0, hi = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_LT(lo, 0.01);
  EXPECT_GT(hi, 0.99);
  const double r = rng.uniform(5.0, 6.0);
  EXPECT_GE(r, 5.0);
  EXPECT_LT(r, 6.0);
}

TEST(Rng, Mix64IsBijectiveOnSamples) {
  // Distinct inputs must map to distinct outputs (injectivity sample).
  std::set<std::uint64_t> out;
  for (std::uint64_t i = 0; i < 10000; ++i) out.insert(mix64(i));
  EXPECT_EQ(out.size(), 10000u);
}

TEST(Rng, HashBelowIsUniformish) {
  // Chi-square-lite: bucket counts within 3x of expectation.
  constexpr int kBuckets = 16;
  int counts[kBuckets] = {};
  for (std::uint64_t i = 0; i < 16000; ++i)
    ++counts[hashBelow(hashCombine(1, i), kBuckets)];
  for (int c : counts) {
    EXPECT_GT(c, 1000 / 2);
    EXPECT_LT(c, 1000 * 2);
  }
}

TEST(Rng, HashCombineIsOrderSensitive) {
  EXPECT_NE(hashCombine(1, 2), hashCombine(2, 1));
  EXPECT_NE(hashCombine(1, 2, 3), hashCombine(3, 2, 1));
}

TEST(Table, FormatsAlignedColumns) {
  Table t({"a", "bbbb"});
  t.addRow({"1", "2"});
  t.addRow({"333", "4"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("| a   | bbbb |"), std::string::npos);
  EXPECT_NE(s.find("| 333 | 4    |"), std::string::npos);
  // Rules at top, under header, and bottom.
  int rules = 0;
  std::istringstream is(s);
  std::string line;
  while (std::getline(is, line))
    if (line.rfind("+-", 0) == 0) ++rules;
  EXPECT_EQ(rules, 3);
}

TEST(Table, HandlesShortRows) {
  Table t({"x", "y"});
  t.addRow({"only"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("only"), std::string::npos);
}

TEST(Fmt, FixedPrecisionAndPercent) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
  EXPECT_EQ(fmtPercent(0.444), "44%");
  EXPECT_EQ(fmtPercent(1.0), "100%");
}

TEST(Check, ThrowsWithLocationAndMessage) {
  try {
    DIVA_CHECK_MSG(1 == 2, "context " << 42);
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("support_test.cpp"), std::string::npos);
    EXPECT_NE(what.find("context 42"), std::string::npos);
  }
}

TEST(Check, PassesSilently) {
  EXPECT_NO_THROW(DIVA_CHECK(true));
  EXPECT_NO_THROW(DIVA_CHECK_MSG(2 + 2 == 4, "fine"));
}

// ---------------------------------------------------------------------------
// LineReader — the shared rules of the graph, scenario and trace formats
// ---------------------------------------------------------------------------

/// The message of the CheckError `fn` throws ("" if it throws none).
template <typename Fn>
std::string errorOf(Fn fn) {
  try {
    fn();
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(LineReader, SkipsBlankAndCommentLinesAndCutsComments) {
  const std::string text = "\n# header\n  \t\nalpha 1 # note\n#\nbeta#glued\n   # indented\n";
  LineReader in(text, "demo");
  ASSERT_TRUE(in.next());
  EXPECT_EQ(in.line(), 4);
  EXPECT_EQ(in.word("key"), "alpha");
  EXPECT_EQ(in.value<int>("count"), 1);
  EXPECT_FALSE(in.more());
  ASSERT_TRUE(in.next());
  EXPECT_EQ(in.line(), 6);
  EXPECT_EQ(in.word("key"), "beta");
  EXPECT_FALSE(in.more());
  EXPECT_FALSE(in.next());
}

TEST(LineReader, LastLineNeedsNoNewlineAndCarriageReturnsAreSpace) {
  LineReader in("a 1\r\nb 2", "demo");
  ASSERT_TRUE(in.next());
  EXPECT_EQ(in.word("key"), "a");
  EXPECT_EQ(in.value<int>("n"), 1);
  EXPECT_NO_THROW(in.end("a"));
  ASSERT_TRUE(in.next());
  EXPECT_EQ(in.word("key"), "b");
  EXPECT_EQ(in.value<double>("n"), 2.0);
  EXPECT_FALSE(in.next());
}

TEST(LineReader, ValuesMustParseAsAWholeToken) {
  const auto readAs = [](const char* tok, auto type) {
    LineReader in(tok, "demo");
    EXPECT_TRUE(in.next());
    return errorOf([&] { (void)in.value<decltype(type)>("field"); });
  };
  EXPECT_NE(readAs("4x", 0).find("malformed field '4x'"), std::string::npos);
  EXPECT_NE(readAs("1e309", 0.0).find("malformed field '1e309'"), std::string::npos);
  EXPECT_NE(readAs("nan", 0.0).find("malformed"), std::string::npos);
  EXPECT_NE(readAs("2147483648", 0).find("malformed"), std::string::npos);
  EXPECT_NE(readAs("-1", std::uint64_t{0}).find("malformed field '-1'"), std::string::npos);
  EXPECT_NE(readAs("-0", 0u).find("malformed"), std::string::npos);
  EXPECT_EQ(readAs("-1", 0), "");
  EXPECT_EQ(readAs("1e-320", 0.0), "");
  EXPECT_EQ(readAs("18446744073709551615", std::uint64_t{0}), "");
  EXPECT_EQ(LineReader::parse<double>("2.5"), 2.5);
  EXPECT_FALSE(LineReader::parse<int>("2.5").has_value());
}

TEST(LineReader, MoreReportsARemainingToken) {
  LineReader in("objects 4   # 64 bytes\n", "demo");
  ASSERT_TRUE(in.next());
  EXPECT_TRUE(in.more());
  (void)in.word("key");
  EXPECT_TRUE(in.more());
  EXPECT_EQ(in.value<int>("count"), 4);
  EXPECT_FALSE(in.more());
}

TEST(LineReader, EndRejectsTrailingTokens) {
  LineReader in("rounds 5 reads 0.1\n", "scenario");
  ASSERT_TRUE(in.next());
  (void)in.word("key");
  (void)in.value<int>("count");
  const std::string what = errorOf([&] { in.end("rounds"); });
  EXPECT_NE(what.find("scenario file line 1: unexpected trailing token 'reads' after 'rounds'"),
            std::string::npos)
      << what;
}

TEST(LineReader, EveryErrorNamesTheFormatAndLine) {
  const std::string prefix = "demo file line 3: ";
  const auto onLine3 = [&](const char* line, auto read) {
    const std::string text = std::string("first\n\n") + line + "\n";
    LineReader in(text, "demo");
    EXPECT_TRUE(in.next());
    EXPECT_TRUE(in.next());
    EXPECT_EQ(in.where(), prefix);
    const std::string what = errorOf([&] { read(in); });
    EXPECT_NE(what.find(prefix), std::string::npos) << what;
  };
  // Missing token, malformed value, negative unsigned, trailing token.
  onLine3("key", [](LineReader& in) {
    (void)in.word("key");
    (void)in.word("name");
  });
  onLine3("key 4x", [](LineReader& in) {
    (void)in.word("key");
    (void)in.value<int>("n");
  });
  onLine3("key -1", [](LineReader& in) {
    (void)in.word("key");
    (void)in.value<unsigned>("n");
  });
  onLine3("key x", [](LineReader& in) {
    (void)in.word("key");
    in.end("key");
  });
}

TEST(TextFile, ParseErrorsNameThePathAndWritesRoundTrip) {
  const std::string path = ::testing::TempDir() + "support_test_text_file.txt";
  writeTextFile(path, "demo", [](std::ostream& out) { out << "a 1\nb x\n"; });
  const auto sumOf = [](const std::string& text) {
    LineReader in(text, "demo");
    int sum = 0;
    while (in.next()) {
      (void)in.word("key");
      sum += in.value<int>("n");
    }
    return sum;
  };
  const std::string what = errorOf([&] { (void)parseTextFile(path, "demo", sumOf); });
  EXPECT_NE(what.find(path + ": "), std::string::npos) << what;
  EXPECT_NE(what.find("demo file line 2: malformed n 'x'"), std::string::npos) << what;
  writeTextFile(path, "demo", [](std::ostream& out) { out << "a 1\nb 2"; });
  EXPECT_EQ(parseTextFile(path, "demo", sumOf), 3);
  const std::string missing = errorOf([] {
    (void)parseTextFile("/nonexistent/x.txt", "demo", [](const std::string&) { return 0; });
  });
  EXPECT_EQ(missing, "cannot open demo file '/nonexistent/x.txt'");
  EXPECT_NE(errorOf([] { writeTextFile("/nonexistent/x.txt", "demo", [](std::ostream&) {}); })
                .find("cannot open demo file"),
            std::string::npos);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// FlatMap — the open-addressing table behind the per-message protocol state
// ---------------------------------------------------------------------------

// Values own heap memory, so every move a rehash or a backward shift makes
// is checked under ASan and a lost or doubled value shows as a leak or a
// double free.
using OwningMap = FlatMap<std::unique_ptr<std::uint64_t>>;
using Model = std::unordered_map<std::uint64_t, std::uint64_t>;

::testing::AssertionResult matchesModel(OwningMap& map, const Model& model) {
  if (map.size() != model.size())
    return ::testing::AssertionFailure() << "size " << map.size() << " vs " << model.size();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> seen;
  map.forEach([&](std::uint64_t k, std::unique_ptr<std::uint64_t>& v) {
    seen.emplace_back(k, *v);
  });
  std::vector<std::pair<std::uint64_t, std::uint64_t>> want(model.begin(), model.end());
  std::sort(seen.begin(), seen.end());
  std::sort(want.begin(), want.end());
  if (seen != want) return ::testing::AssertionFailure() << "forEach differs from the model";
  for (const auto& [k, v] : model) {
    const std::unique_ptr<std::uint64_t>* got = map.find(k);
    if (!got || **got != v) return ::testing::AssertionFailure() << "lost key " << k;
  }
  const std::size_t cap = map.capacity();
  if (cap != 0 && ((cap & (cap - 1)) != 0 || 4 * map.size() > 3 * cap))
    return ::testing::AssertionFailure() << "capacity " << cap << " for " << map.size();
  return ::testing::AssertionSuccess();
}

/// One random step against the model: insert-or-update, find, or erase.
void randomStep(OwningMap& map, Model& model, std::uint64_t key, SplitMix64& rng) {
  switch (rng.below(3)) {
    case 0: {
      const std::uint64_t v = rng.next();
      const auto [slot, inserted] = map.tryEmplace(key);
      ASSERT_EQ(inserted, !model.contains(key)) << "key " << key;
      ASSERT_EQ(inserted, *slot == nullptr) << "a fresh slot holds V{}";
      *slot = std::make_unique<std::uint64_t>(v);
      model[key] = v;
      break;
    }
    case 1: {
      const std::unique_ptr<std::uint64_t>* got = map.find(key);
      const auto it = model.find(key);
      ASSERT_EQ(got != nullptr, it != model.end()) << "key " << key;
      if (got) {
        ASSERT_EQ(**got, it->second);
      }
      break;
    }
    default:
      ASSERT_EQ(map.erase(key), model.erase(key) == 1) << "key " << key;
  }
}

TEST(FlatMap, MatchesUnorderedMapUnderRandomOperations) {
  // Three key shapes: dense ids (variables, transactions), varNodeKey-style
  // (id << 32 | tree node) and arbitrary 64-bit keys. Small key spaces
  // make erases hit; the mix grows tables mid-sequence and shrinks them
  // back, and every map is moved away and reused part way through.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SplitMix64 rng(seed);
    OwningMap map;
    Model model;
    const std::uint64_t space = 64u << (seed % 4);
    for (int step = 0; step < 6000; ++step) {
      std::uint64_t key = rng.below(space);
      if (seed % 3 == 1) key = (key / 16) << 32 | (key % 16);
      if (seed % 3 == 2) key = mix64(key);
      if (key == OwningMap::kEmpty) continue;
      randomStep(map, model, key, rng);
      if (HasFatalFailure()) return;
      if (step % 1000 == 500) {
        OwningMap moved(std::move(map));
        EXPECT_EQ(map.size(), 0u);
        EXPECT_EQ(map.capacity(), 0u) << "a moved-from map holds no table";
        EXPECT_EQ(map.find(key), nullptr);
        ASSERT_TRUE(map.tryEmplace(key).second) << "a moved-from map is usable";
        map = std::move(moved);  // drops the one-entry table it held
      }
      if (step % 250 == 0) {
        ASSERT_TRUE(matchesModel(map, model)) << "seed " << seed;
      }
    }
    ASSERT_TRUE(matchesModel(map, model)) << "seed " << seed;
    const std::size_t capacity = map.capacity();
    for (const auto& [k, v] : model) ASSERT_TRUE(map.erase(k));
    model.clear();
    EXPECT_TRUE(matchesModel(map, model));
    EXPECT_EQ(map.capacity(), capacity) << "an emptied map keeps its table";
  }
}

TEST(FlatMap, ClusterWrappingPastTheTableEndSurvivesErases) {
  // Keys whose home is one of the last two slots of a 32-slot table form
  // one probe cluster that wraps to slot 0 and beyond. Erasing from any
  // position of it must leave every other member reachable, including the
  // wrapped ones whose home lies "after" the hole in index order.
  constexpr std::size_t kCap = 32;
  std::vector<std::uint64_t> tail;  // home = kCap - 2 or kCap - 1
  for (std::uint64_t k = 0; tail.size() < 10; ++k)
    if (OwningMap::homeSlot(k, kCap) >= kCap - 2) tail.push_back(k);
  for (std::size_t victim = 0; victim < tail.size(); ++victim) {
    OwningMap map;
    Model model;
    // A few keys homed elsewhere, then the cluster: 14 keys, a 32-slot table.
    for (std::uint64_t k = 1000; map.size() < 4; ++k) {
      if (OwningMap::homeSlot(k, kCap) < 8 || OwningMap::homeSlot(k, kCap) >= kCap - 2) continue;
      *map.tryEmplace(k).first = std::make_unique<std::uint64_t>(k);
      model[k] = k;
    }
    for (std::uint64_t k : tail) {
      *map.tryEmplace(k).first = std::make_unique<std::uint64_t>(k + 1);
      model[k] = k + 1;
    }
    ASSERT_EQ(map.capacity(), kCap);
    ASSERT_TRUE(matchesModel(map, model));
    // Erase one member, then the rest from the wrapped end backwards.
    ASSERT_TRUE(map.erase(tail[victim]));
    model.erase(tail[victim]);
    ASSERT_TRUE(matchesModel(map, model)) << "after erasing cluster member " << victim;
    for (auto it = tail.rbegin(); it != tail.rend(); ++it) {
      if (*it == tail[victim]) continue;
      ASSERT_TRUE(map.erase(*it));
      model.erase(*it);
      ASSERT_TRUE(matchesModel(map, model));
    }
    EXPECT_FALSE(map.erase(tail[victim])) << "erasing an absent key";
  }
}

TEST(FlatMap, UpdatesNeverGrowAndTheReservedKeyIsRefused) {
  FlatMap<int> map;
  EXPECT_EQ(map.capacity(), 0u);
  EXPECT_EQ(map.find(7), nullptr);
  EXPECT_FALSE(map.erase(7));
  for (std::uint64_t k = 0; k < 6; ++k) map[k] = static_cast<int>(k);  // 3/4 of 8
  ASSERT_EQ(map.capacity(), 8u);
  for (std::uint64_t k = 0; k < 6; ++k) EXPECT_FALSE(map.tryEmplace(k).second);
  EXPECT_EQ(map.capacity(), 8u) << "an update of a full table grew it";
  map[6] = 6;
  EXPECT_EQ(map.capacity(), 16u);
  EXPECT_EQ(map.at(3), 3);
  EXPECT_THROW(map.at(99), CheckError);
  EXPECT_THROW(map.tryEmplace(FlatMap<int>::kEmpty), CheckError);
  EXPECT_EQ(map.find(FlatMap<int>::kEmpty), nullptr);
  EXPECT_FALSE(map.erase(FlatMap<int>::kEmpty));
}

// ---------------------------------------------------------------------------
// parallelFor — the worker loop behind the graph topologies' builds
// ---------------------------------------------------------------------------

constexpr std::size_t kItems = 1000;
constexpr int kWorkerCounts[] = {1, 2, 7};

TEST(ParallelFor, RunsEveryItemExactlyOnce) {
  for (const int workers : kWorkerCounts) {
    std::vector<std::atomic<int>> runs(kItems);
    parallelFor(workers, kItems, [] { return 0; },
                [&](int&, std::size_t i) { runs[i].fetch_add(1); });
    for (std::size_t i = 0; i < kItems; ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "item " << i << ", " << workers << " workers";
    }
  }
}

TEST(ParallelFor, BuildsEachWorkersStateOnce) {
  struct State {
    int id;
  };
  for (const int workers : kWorkerCounts) {
    std::atomic<int> built{0};
    std::vector<std::thread::id> builder(static_cast<std::size_t>(workers));
    std::vector<int> stateOf(kItems, -1);
    std::vector<char> onBuilder(kItems, 0);
    parallelFor(
        workers, kItems,
        [&] {
          const int id = built.fetch_add(1);
          if (id < workers) builder[static_cast<std::size_t>(id)] = std::this_thread::get_id();
          return State{id};
        },
        [&](State& s, std::size_t i) {
          stateOf[i] = s.id;
          onBuilder[i] = s.id < workers &&
                         builder[static_cast<std::size_t>(s.id)] == std::this_thread::get_id();
        });
    EXPECT_GE(built.load(), 1);
    EXPECT_LE(built.load(), workers);
    for (std::size_t i = 0; i < kItems; ++i) {
      EXPECT_TRUE(onBuilder[i]) << "item " << i << " ran on state " << stateOf[i]
                                << " away from the thread that built it";
    }
  }
  // One worker runs inline on the caller's thread.
  const std::thread::id caller = std::this_thread::get_id();
  std::set<std::thread::id> ran;
  parallelFor(1, kItems, [] { return 0; },
              [&](int&, std::size_t) { ran.insert(std::this_thread::get_id()); });
  EXPECT_EQ(ran, std::set<std::thread::id>{caller});
}

TEST(ParallelFor, RethrowsTheLowestFailingIndex) {
  for (const int workers : kWorkerCounts) {
    std::vector<std::atomic<int>> runs(kItems);
    std::string what;
    try {
      parallelFor(workers, kItems, [] { return 0; }, [&](int&, std::size_t i) {
        runs[i].fetch_add(1);
        // Item 500 fails last in time: later items fail while it sleeps.
        if (i == 500) std::this_thread::sleep_for(std::chrono::milliseconds(20));
        if (i == 500 || i == 600 || i == 999)
          throw std::runtime_error("item " + std::to_string(i));
      });
    } catch (const std::runtime_error& e) {
      what = e.what();
    }
    EXPECT_EQ(what, "item 500") << workers << " workers";
    for (std::size_t i = 0; i < 500; ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "item " << i << ", " << workers << " workers";
    }
  }
}

TEST(ParallelFor, ZeroItemsRunNothing) {
  for (const int workers : kWorkerCounts) {
    int built = 0, ran = 0;
    parallelFor(workers, 0, [&] { return ++built; }, [&](int&, std::size_t) { ++ran; });
    EXPECT_EQ(built, 0);
    EXPECT_EQ(ran, 0);
  }
}

}  // namespace
}  // namespace diva::support
