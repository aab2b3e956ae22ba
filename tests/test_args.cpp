#include "util/args.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace origin::util {
namespace {

/// argv builder: parse() wants char**, tests want string literals.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    ptrs_.push_back(const_cast<char*>("test"));
    for (auto& arg : storage_) ptrs_.push_back(arg.data());
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> ptrs_;
};

TEST(ArgParser, BindsEveryTypeWithBothSyntaxes) {
  std::string name = "default";
  int count = 3;
  unsigned threads = 1;
  std::uint64_t seed = 7;
  double rate = 0.5;
  bool flag = false;

  ArgParser parser("tool", "summary");
  parser.add("name", &name, "a string");
  parser.add("count", &count, "an int");
  parser.add("threads", &threads, "an unsigned");
  parser.add("seed", &seed, "a u64");
  parser.add("rate", &rate, "a double");
  parser.add_switch("flag", &flag, "a switch");

  Argv argv({"--name", "abc", "--count=-4", "--threads", "8",
             "--seed=18446744073709551615", "--rate", "2.25", "--flag"});
  EXPECT_TRUE(parser.parse(argv.argc(), argv.argv()));
  EXPECT_EQ(name, "abc");
  EXPECT_EQ(count, -4);
  EXPECT_EQ(threads, 8u);
  EXPECT_EQ(seed, 18446744073709551615ull);
  EXPECT_EQ(rate, 2.25);
  EXPECT_TRUE(flag);
}

TEST(ArgParser, DefaultsSurviveWhenFlagsAbsent) {
  int count = 42;
  ArgParser parser("tool", "summary");
  parser.add("count", &count, "an int");
  Argv argv({});
  EXPECT_TRUE(parser.parse(argv.argc(), argv.argv()));
  EXPECT_EQ(count, 42);
}

TEST(ArgParser, RejectsBadInput) {
  int count = 0;
  bool flag = false;
  ArgParser parser("tool", "summary");
  parser.add("count", &count, "an int");
  parser.add_switch("flag", &flag, "a switch");

  {
    Argv argv({"--nope", "1"});
    EXPECT_THROW(parser.parse(argv.argc(), argv.argv()),
                 std::invalid_argument);
  }
  {
    Argv argv({"--count", "twelve"});
    EXPECT_THROW(parser.parse(argv.argc(), argv.argv()),
                 std::invalid_argument);
  }
  {
    Argv argv({"--count"});  // missing value
    EXPECT_THROW(parser.parse(argv.argc(), argv.argv()),
                 std::invalid_argument);
  }
  {
    Argv argv({"--flag=yes"});  // switches take no value
    EXPECT_THROW(parser.parse(argv.argc(), argv.argv()),
                 std::invalid_argument);
  }
  {
    Argv argv({"stray"});
    EXPECT_THROW(parser.parse(argv.argc(), argv.argv()),
                 std::invalid_argument);
  }

  // Unsigned and double targets: the same error for values they cannot
  // hold faithfully.
  unsigned threads = 1;
  std::uint64_t seed = 7;
  double rate = 0.5;
  ArgParser typed("tool", "summary");
  typed.add("threads", &threads, "an unsigned");
  typed.add("seed", &seed, "a u64");
  typed.add("rate", &rate, "a double");
  // strtoul/strtoull negate: "-1" would become the largest value and
  // "-4294967295" would wrap to 1.
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{
           {"--seed", "-1"},
           {"--seed=-18446744073709551615"},
           {"--seed", " -5"},
           {"--threads", "-1"},
           {"--threads=-4294967295"},
           {"--rate", "nan"},
           {"--rate=NAN"},
           {"--rate", "inf"},
           {"--rate", "-infinity"},
           {"--rate", "1e999"}}) {
    Argv argv(args);
    try {
      typed.parse(argv.argc(), argv.argv());
      ADD_FAILURE() << "accepted " << args.back();
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("bad value for --"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(threads, 1u);
  EXPECT_EQ(seed, 7u);
  EXPECT_EQ(rate, 0.5);
  // Signs that mean what they say still parse.
  Argv ok({"--seed", "+3", "--rate", "-2.5"});
  EXPECT_TRUE(typed.parse(ok.argc(), ok.argv()));
  EXPECT_EQ(seed, 3u);
  EXPECT_EQ(rate, -2.5);
}

TEST(ArgParser, HelpReturnsFalseAndUsageListsFlags) {
  int count = 5;
  ArgParser parser("mytool", "does things");
  parser.add("count", &count, "how many");
  Argv argv({"--help"});
  EXPECT_FALSE(parser.parse(argv.argc(), argv.argv()));

  const std::string usage = parser.usage();
  EXPECT_NE(usage.find("mytool"), std::string::npos);
  EXPECT_NE(usage.find("--count"), std::string::npos);
  EXPECT_NE(usage.find("how many"), std::string::npos);
  EXPECT_NE(usage.find("default: 5"), std::string::npos);
}

}  // namespace
}  // namespace origin::util
