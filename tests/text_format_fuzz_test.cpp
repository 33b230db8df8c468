// Deterministic mutational fuzzer for the three text formats — graph,
// scenario and request trace. Each mutant of a committed or generated
// seed file must either be rejected with a support::CheckError, or parse
// to a spec that round-trips exactly through its formatter
// (parse(format(x)) == x). A rejection names its line ("<format> file
// line N") unless a whole-file rule or WorkloadSpec::validate rejected
// it. Any other exception, crash or sanitizer report fails the test.
// Fixed seeds; no libFuzzer.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "net/graph_topology.hpp"
#include "serve/trace.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "workload/scenario.hpp"

namespace diva {
namespace {

using support::SplitMix64;

/// Mutants per format: about a second for all three in Release.
constexpr int kMutants = 6000;

std::string readFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Every file in `dir` with extension `ext`, in name order.
std::vector<std::string> filesIn(const std::filesystem::path& dir, const std::string& ext) {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.path().extension() == ext) paths.push_back(entry.path());
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> texts;
  for (const auto& p : paths) texts.push_back(readFile(p));
  return texts;
}

const std::filesystem::path kScenarioDir = DIVA_SCENARIO_DIR;

bool isSpace(char c) { return c == ' ' || c == '\t' || c == '\n' || c == '\r'; }

/// [begin, end) of every whitespace-separated token of `text`.
std::vector<std::pair<std::size_t, std::size_t>> tokens(const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && isSpace(text[i])) ++i;
    const std::size_t b = i;
    while (i < text.size() && !isSpace(text[i])) ++i;
    if (i > b) out.emplace_back(b, i);
  }
  return out;
}

/// One random edit: replace a token with an edge literal, delete,
/// duplicate or swap tokens, flip a character, or split a line.
void mutate(std::string& text, SplitMix64& rng) {
  static const char* const kLiterals[] = {"-1",         "0",    "-0",     "2147483648",
                                          "4294967296", "1e308", "1e-320", "nan",
                                          "inf",        "#"};
  static const char kChars[] = "0123456789-+.eE#x \t\n";
  const auto toks = tokens(text);
  const auto pick = [&] { return toks[rng.below(toks.size())]; };
  switch (toks.empty() ? 4 : rng.below(6)) {
    case 0: {
      const auto [b, e] = pick();
      text.replace(b, e - b, kLiterals[rng.below(std::size(kLiterals))]);
      break;
    }
    case 1: {
      const auto [b, e] = pick();
      text.erase(b, e - b);
      break;
    }
    case 2: {
      const auto [b, e] = pick();
      const std::string tok = text.substr(b, e - b);
      text.insert(e, 1, ' ');
      text.insert(e + 1, tok);
      break;
    }
    case 3: {
      auto x = pick(), y = pick();
      if (x.first > y.first) std::swap(x, y);
      if (x.first == y.first) break;
      const std::string tx = text.substr(x.first, x.second - x.first);
      const std::string ty = text.substr(y.first, y.second - y.first);
      text.replace(y.first, ty.size(), tx);  // later token first keeps x's offsets
      text.replace(x.first, tx.size(), ty);
      break;
    }
    case 4:
      if (text.empty()) break;
      text[rng.below(text.size())] = kChars[rng.below(sizeof(kChars) - 1)];
      break;
    default:
      text.insert(rng.below(text.size() + 1), "\n");
      break;
  }
}

struct Tally {
  int accepted = 0;
  int rejected = 0;
};

/// Run `kMutants` mutants of `seeds` through `parse`/`format` and check
/// the oracle. `lineless` lists the message fragments of the rules that
/// may reject without a line number.
template <typename Parse, typename Format>
Tally fuzz(const std::vector<std::string>& seeds, std::uint64_t seed, Parse parse,
           Format format, const std::vector<std::string>& lineless) {
  SplitMix64 rng(seed);
  Tally tally;
  for (int i = 0; i < kMutants; ++i) {
    std::string text = seeds[rng.below(seeds.size())];
    const int edits = 1 + static_cast<int>(rng.below(3));
    for (int k = 0; k < edits; ++k) mutate(text, rng);
    decltype(parse(text)) x;
    try {
      x = parse(text);
    } catch (const support::CheckError& e) {
      ++tally.rejected;
      const std::string what = e.what();
      const bool ruled = std::any_of(lineless.begin(), lineless.end(), [&](const auto& s) {
        return what.find(s) != std::string::npos;
      });
      if (what.find("file line ") == std::string::npos && !ruled)
        ADD_FAILURE() << "error without a line number: " << what << "\n--- input ---\n"
                      << text;
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "foreign exception: " << e.what() << "\n--- input ---\n" << text;
      continue;
    }
    ++tally.accepted;
    const std::string formatted = format(x);
    try {
      if (!(parse(formatted) == x))
        ADD_FAILURE() << "round trip changed the spec\n--- input ---\n" << text;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "formatted spec does not parse: " << e.what()
                    << "\n--- formatted ---\n"
                    << formatted;
    }
  }
  return tally;
}

/// Each format must exercise both oracle branches, or the run shows
/// nothing about one of them.
void expectBothOutcomes(const Tally& t) {
  EXPECT_GT(t.accepted, kMutants / 50) << "too few mutants parsed";
  EXPECT_GT(t.rejected, kMutants / 50) << "too few mutants rejected";
}

TEST(TextFormatFuzz, GraphMutantsRejectWithALineOrRoundTrip) {
  std::vector<std::string> seeds;
  net::GraphSpec fat = net::fatTreeGraph(2, 3);  // non-default weights
  net::GraphSpec rr = net::randomRegularGraph(12, 3, 5);
  for (std::size_t i = 0; i < rr.edges.size(); ++i) {
    rr.edges[i].weight = 0.25 * static_cast<double>(1 + i % 5);
    rr.edges[i].latency = 1.0 + static_cast<double>(i % 3);
  }
  for (const net::GraphSpec& g : {fat, rr, net::gridGraph(3, 3), net::ringGraph(5)})
    seeds.push_back(net::formatGraph(g));
  const Tally t = fuzz(seeds, 0x67a9, net::parseGraph, net::formatGraph,
                       {"graph file has no 'nodes' line"});
  expectBothOutcomes(t);
}

TEST(TextFormatFuzz, ScenarioMutantsRejectWithALineOrRoundTrip) {
  std::vector<std::string> seeds = filesIn(kScenarioDir, ".scenario");
  for (std::string& s : filesIn(kScenarioDir / ".." / "tests" / "data", ".scenario"))
    seeds.push_back(std::move(s));
  ASSERT_GE(seeds.size(), 11u);
  const Tally t = fuzz(seeds, 0x5ce7, workload::parseScenario, workload::formatScenario,
                       {"scenario file has no 'objects' line",
                        "scenario file has no 'phase' line", "workload '"});
  expectBothOutcomes(t);
}

TEST(TextFormatFuzz, TraceMutantsRejectWithALineOrRoundTrip) {
  const std::vector<std::string> seeds = filesIn(kScenarioDir, ".trace");
  ASSERT_FALSE(seeds.empty());
  const Tally t = fuzz(seeds, 0x7ace, serve::parseTrace, serve::formatTrace,
                       {"trace file has no request lines", "outside declared population"});
  expectBothOutcomes(t);
}

}  // namespace
}  // namespace diva
