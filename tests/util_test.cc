#include <gtest/gtest.h>

#include "util/random.h"
#include "util/result.h"
#include "util/status.h"
#include "util/string_util.h"

namespace graphitti {
namespace util {
namespace {

// --- Status ---

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("thing missing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "thing missing");
  EXPECT_EQ(s.ToString(), "NotFound: thing missing");
}

TEST(StatusTest, AllConstructorsMapToCodes) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::ParseError("x").IsParseError());
  EXPECT_TRUE(Status::TypeError("x").IsTypeError());
  EXPECT_TRUE(Status::Unsupported("x").IsUnsupported());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusTest, CopyIsCheapAndValueSemantic) {
  Status a = Status::ParseError("bad");
  Status b = a;
  EXPECT_EQ(a, b);
  EXPECT_EQ(b.message(), "bad");
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status Chain(int x) {
  GRAPHITTI_RETURN_NOT_OK(FailIfNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  EXPECT_TRUE(Chain(5).ok());
  EXPECT_TRUE(Chain(-1).IsInvalidArgument());
}

// --- Result ---

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::OutOfRange("not positive");
  return x;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(4);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 4);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-4);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsOutOfRange());
  EXPECT_EQ(r.ValueOr(99), 99);
}

TEST(ResultTest, ValueOrPassesThroughOnSuccess) {
  EXPECT_EQ(ParsePositive(3).ValueOr(99), 3);
}

Result<std::string> Describe(int x) {
  GRAPHITTI_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return std::string("value=") + std::to_string(v);
}

TEST(ResultTest, AssignOrReturnMacro) {
  ASSERT_TRUE(Describe(2).ok());
  EXPECT_EQ(*Describe(2), "value=2");
  EXPECT_TRUE(Describe(0).status().IsOutOfRange());
}

TEST(ResultTest, MoveOnlyTypesWork) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueUnsafe();
  EXPECT_EQ(*v, 7);
}

TEST(ResultTest, OkStatusNormalizedToInternalError) {
  Result<int> r = Status::OK();
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInternal());
}

// --- string_util ---

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(StringUtilTest, SplitWhitespaceDropsEmpties) {
  EXPECT_EQ(SplitWhitespace("  a \t b\nc  "), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringUtilTest, JoinRoundTripsSplit) {
  std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(Join(parts, ","), "x,y,z");
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("hi"), "hi");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringUtilTest, CaseHelpers) {
  EXPECT_EQ(ToLower("AbC12"), "abc12");
  EXPECT_TRUE(StartsWith("graphitti", "graph"));
  EXPECT_FALSE(StartsWith("graph", "graphitti"));
  EXPECT_TRUE(EndsWith("annotation.xml", ".xml"));
  EXPECT_FALSE(EndsWith("xml", "annotation.xml"));
}

TEST(StringUtilTest, ContainsIgnoreCase) {
  EXPECT_TRUE(ContainsIgnoreCase("The Protease site", "protease"));
  EXPECT_TRUE(ContainsIgnoreCase("abc", ""));
  EXPECT_FALSE(ContainsIgnoreCase("", "a"));
  EXPECT_FALSE(ContainsIgnoreCase("proteas", "protease"));
}

TEST(StringUtilTest, TokenizeWords) {
  EXPECT_EQ(TokenizeWords("protein.TP53, binds!"),
            (std::vector<std::string>{"protein", "tp53", "binds"}));
  EXPECT_TRUE(TokenizeWords(" .,;! ").empty());
}

TEST(StringUtilTest, ParseInt64) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt64(" -7 ", &v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(ParseInt64("4x", &v));
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("1.5", &v));
}

TEST(StringUtilTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.25", &v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(ParseDouble("-1e3", &v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("", &v));
}

// --- Rng ---

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next64(), b.Next64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next64() == b.Next64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, SkewedFavorsSmallRanks) {
  Rng rng(11);
  size_t first_bucket = 0;
  const size_t n = 10000;
  for (size_t i = 0; i < n; ++i) {
    if (rng.Skewed(100) == 0) ++first_bucket;
  }
  // Rank 0 carries weight 1/H(100) ~ 19%; allow generous slack.
  EXPECT_GT(first_bucket, n / 20);
}

TEST(RngTest, RandomDnaUsesAlphabet) {
  Rng rng(3);
  std::string dna = rng.RandomDna(500);
  EXPECT_EQ(dna.size(), 500u);
  for (char c : dna) {
    EXPECT_TRUE(c == 'A' || c == 'C' || c == 'G' || c == 'T');
  }
}

}  // namespace
}  // namespace util
}  // namespace graphitti
