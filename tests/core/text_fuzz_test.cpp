// Seeded mutation fuzzing of the text grammars: the `--faults` language
// (net::parse_fault_plan, then FaultPlan::validate), CSV trace import
// (workload::read_csv) and the command line (Flags and its typed
// getters).
//
// Each mutant is a valid input with one to four edits stacked on it:
// a flipped bit, a byte replaced by a grammar character, an inserted
// token (separators, signs, exponents, nan/inf, numbers past 2^64,
// quotes, newlines), an erased span, a duplicated span, or a cut. The
// invariant: the input either parses or is rejected with its typed
// error, ContractViolation for the fault plan and the CSV and FlagError
// for flags. Any other exception fails the test, and both outcomes must
// occur. CI adds "no UB" (the ASan/UBSan job) and "bounded memory" (the
// Release job reruns these cases under an address-space cap). The seed is
// fixed, so every run sees the same mutants.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <typeinfo>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/rng.h"
#include "net/faults.h"
#include "workload/dataset.h"
#include "workload/trace_io.h"

namespace bohr {
namespace {

constexpr std::uint64_t kSeed = 0x7E47F022;
constexpr std::size_t kMutantsPerGrammar = 6000;
/// Untyped errors reported in full; the rest are only counted.
constexpr std::size_t kReportedEscapes = 5;

/// Characters and tokens the grammars give meaning to, plus the number
/// forms that parsers get wrong: signs, exponents, non-finite values,
/// hex, and integers past 2^64.
constexpr char kAlphabet[] = ";:,=+-.e0123456789 \"\n\r\t\x7f\xff";
constexpr std::string_view kTokens[] = {
    ";", ":", ",", "=", "+", "--", "\"", "\"\"", "\n", "-1", "0", "1e308",
    "1e-320", "-0", "nan", "inf", "-inf", "0x10", "18446744073709551616",
    "9223372036854775808", "4294967296", "phases=", "probe+move+query",
    "site=", "start=", "end=", "factor=", "p=", "max=", "file=", "bit=",
    "threads=", "true", "maybe", ""};

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.below(n));
}

/// One to four stacked edits of `input`.
std::string mutate(std::string s, Rng& rng) {
  const std::size_t edits = 1 + pick(rng, 4);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t at = pick(rng, s.size() + 1);
    switch (pick(rng, 6)) {
      case 0:  // flip one bit
        if (at < s.size()) {
          s[at] = static_cast<char>(s[at] ^ (1 << pick(rng, 8)));
        }
        break;
      case 1:  // replace one byte with a grammar character
        if (at < s.size()) s[at] = kAlphabet[pick(rng, sizeof(kAlphabet) - 1)];
        break;
      case 2:  // insert a token
        s.insert(at, kTokens[pick(rng, std::size(kTokens))]);
        break;
      case 3:  // erase a span
        s.erase(at, 1 + pick(rng, 8));
        break;
      case 4: {  // duplicate a span somewhere else
        const std::string span = s.substr(at, 1 + pick(rng, 16));
        s.insert(pick(rng, s.size() + 1), span);
        break;
      }
      default:  // cut
        s.resize(at);
        break;
    }
  }
  return s;
}

std::string printable(std::string_view s) {
  std::string out;
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (u >= 0x20 && u < 0x7f) {
      out.push_back(c);
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02x", u);
      out += buf;
    }
  }
  return out;
}

/// Runs `parse(mutant, k)` over kMutantsPerGrammar mutants, each of
/// corpus[k]: every call must return or throw `Typed`, and both outcomes
/// must occur.
template <typename Typed, typename Parse>
void fuzz(const std::vector<std::string>& corpus, std::uint64_t salt,
          const Parse& parse) {
  Rng rng(kSeed ^ salt);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::size_t escaped = 0;
  for (std::size_t m = 0; m < kMutantsPerGrammar; ++m) {
    const std::size_t k = m % corpus.size();
    const std::string mutant = mutate(corpus[k], rng);
    try {
      parse(mutant, k);
      ++accepted;
    } catch (const Typed&) {
      ++rejected;
    } catch (const std::exception& e) {
      if (++escaped <= kReportedEscapes) {
        ADD_FAILURE() << "mutant " << m << " threw " << typeid(e).name()
                      << " (" << e.what() << ") on '" << printable(mutant)
                      << "'";
      }
    }
  }
  EXPECT_EQ(escaped, 0u) << "mutants that threw an untyped error";
  // All accepted, or all rejected, would mean the mutants never reached
  // one of the parser's two outcomes.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(TextFuzzTest, FaultPlanParsesOrThrowsContractViolation) {
  const std::vector<std::string> corpus = {
      "outage:site=6,start=0,end=15,phases=probe+move;"
      "degrade:site=3,start=1,end=4,factor=0.5,link=up;"
      "kill:time=2,src=1,dst=4;probe-loss:p=0.3,seed=99;"
      "retry:max=3,base=0.1,cap=2,mode=restart;lp-failure",
      "slow-site:site=2,start=0,end=60,factor=4,phases=query;"
      "outage:site=0,start=30,end=100000",
      "crash:phase=movement_plan;torn-write:file=3,fraction=0.25;"
      "bit-flip:file=0,bit=13"};
  for (const std::string& valid : corpus) {
    net::parse_fault_plan(valid).validate();
  }
  fuzz<ContractViolation>(corpus, 1,
                          [](const std::string& spec, std::size_t) {
                            net::parse_fault_plan(spec).validate();
                          });
}

TEST(TextFuzzTest, CsvTraceParsesOrThrowsContractViolation) {
  workload::GeneratorConfig gen;
  gen.sites = 3;
  gen.rows_per_site = 8;
  gen.gb_per_site = 1.0;
  gen.rows_per_block = 4;
  gen.seed = 5;
  std::vector<workload::DatasetBundle> references;
  std::vector<std::string> corpus;
  for (const workload::WorkloadKind kind :
       {workload::WorkloadKind::BigData, workload::WorkloadKind::TpcDs,
        workload::WorkloadKind::Facebook}) {
    references.push_back(workload::generate_dataset(kind, 0, gen));
    std::ostringstream csv;
    workload::write_csv(csv, references.back());
    corpus.push_back(csv.str());
  }
  for (std::size_t k = 0; k < corpus.size(); ++k) {
    std::istringstream in(corpus[k]);
    workload::read_csv(in, references[k], gen.sites);
  }
  fuzz<ContractViolation>(
      corpus, 2, [&](const std::string& text, std::size_t k) {
        std::istringstream in(text);
        workload::read_csv(in, references[k], gen.sites);
      });
}

/// Parses `line` as a command line (one argument per '\x1f'-separated
/// field), then reads every flag it names through every getter: each
/// typed getter returns or throws FlagError.
void parse_command_line(const std::string& line, std::size_t) {
  std::vector<std::string> args = {"bohr_sim"};
  std::size_t start = 0;
  for (;;) {
    const std::size_t sep = line.find('\x1f', start);
    args.push_back(line.substr(start, sep - start));
    if (sep == std::string::npos) break;
    start = sep + 1;
  }
  std::vector<const char*> argv;
  for (const std::string& a : args) argv.push_back(a.c_str());
  const Flags flags(static_cast<int>(argv.size()), argv.data());
  for (const std::string& name : flags.unused()) {
    EXPECT_TRUE(flags.has(name));
    flags.get(name, "");
    try {
      flags.get_int(name, 0);
    } catch (const FlagError&) {
    }
    try {
      flags.get_double(name, 0.0);
    } catch (const FlagError&) {
    }
    try {
      flags.get_bool(name, false);
    } catch (const FlagError&) {
    }
  }
  EXPECT_TRUE(flags.unused().empty());
}

TEST(TextFuzzTest, FlagsParseOrThrowFlagError) {
  const std::vector<std::string> corpus = {
      "--datasets=12\x1f--lag\x1f" "60\x1f--csv\x1f--threads=4",
      "--faults=outage:site=1,start=0,end=5\x1f--seed=20181204\x1f"
      "--gb-per-site=40.5\x1f--enforce-lag=false",
      "--serve\x1f--tenants\x1f" "3\x1f--arrival-rate=0.8\x1f--duration=20"};
  for (const std::string& valid : corpus) parse_command_line(valid, 0);
  fuzz<FlagError>(corpus, 3, parse_command_line);
}

}  // namespace
}  // namespace bohr
