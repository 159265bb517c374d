#include "common/table.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/hash.h"

namespace bohr {
namespace {

TEST(TableTest, RendersHeadersAndRows) {
  TablePrinter t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TableTest, CsvOutput) {
  TablePrinter t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(TableTest, MismatchedRowThrows) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

TEST(TableTest, NumFormatsFixed) {
  EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::num(2.0, 0), "2");
}

TEST(HashTest, Fnv1aKnownValue) {
  // FNV-1a 64-bit of empty string is the offset basis.
  EXPECT_EQ(fnv1a64(""), 0xCBF29CE484222325ULL);
  EXPECT_NE(fnv1a64("a"), fnv1a64("b"));
}

TEST(HashTest, Mix64IsInjectiveOnSamples) {
  EXPECT_NE(mix64(1), mix64(2));
  // mix64 is a bijection with fixed point 0 (murmur3 finalizer property).
  EXPECT_EQ(mix64(0), 0u);
  EXPECT_NE(mix64(1), 1u);
}

TEST(HashTest, IndexedHashVariesWithIndex) {
  EXPECT_NE(indexed_hash(42, 0), indexed_hash(42, 1));
}

TEST(HashTest, HashCombineOrderMatters) {
  EXPECT_NE(hash_combine(hash_combine(0, 1), 2),
            hash_combine(hash_combine(0, 2), 1));
}

}  // namespace
}  // namespace bohr
