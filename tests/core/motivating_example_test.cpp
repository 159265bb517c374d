// Reproduces the paper's Figure 1 toy example exactly: two sites running
// a page-rank query, Tokyo holding {A,A,A,B} wait — per the figure,
// Tokyo holds {A,A,A} plus one record that may move; Oregon holds
// {A,B,B,C}. Moving the similar record (A) yields 3 intermediate records;
// moving a dissimilar one (B) yields 5; in-place processing yields 4.
#include <gtest/gtest.h>

#include "engine/combiner.h"
#include "engine/record.h"

namespace bohr::core {
namespace {

using engine::RecordStream;

constexpr std::uint64_t kUrlA = 1;
constexpr std::uint64_t kUrlB = 2;
constexpr std::uint64_t kUrlC = 3;

std::size_t intermediate_records(const RecordStream& tokyo,
                                 const RecordStream& oregon) {
  // Each site runs its mapper with a combiner; intermediate data is the
  // union of both sites' combined outputs (Fig 1 counts records).
  return engine::combine(tokyo).size() + engine::combine(oregon).size();
}

RecordStream records(std::initializer_list<std::uint64_t> keys) {
  return RecordStream(keys);
}

TEST(MotivatingExampleTest, InPlaceProcessingFourRecords) {
  // Fig 1a: Tokyo {A,A,A}, Oregon {A,B,B,C} -> 1 + 3 = 4 records.
  EXPECT_EQ(intermediate_records(records({kUrlA, kUrlA, kUrlA}),
                                 records({kUrlA, kUrlB, kUrlB, kUrlC})),
            4u);
}

TEST(MotivatingExampleTest, SimilarityAgnosticMoveFiveRecords) {
  // Fig 1b: Oregon sends B to Tokyo. Tokyo {A,A,A,B} -> {A:3, B:1} = 2;
  // Oregon {A,B,C} -> 3. Total 5 — WORSE than leaving data in place.
  EXPECT_EQ(intermediate_records(records({kUrlA, kUrlA, kUrlA, kUrlB}),
                                 records({kUrlA, kUrlB, kUrlC})),
            5u);
}

TEST(MotivatingExampleTest, SimilarityAwareMoveThreeRecords) {
  // Fig 1c: Oregon sends A (similar to Tokyo's data). Tokyo {A,A,A,A} ->
  // 1; Oregon {B,B,C} -> 2. Total 3 — the best of the three plans.
  EXPECT_EQ(intermediate_records(records({kUrlA, kUrlA, kUrlA, kUrlA}),
                                 records({kUrlB, kUrlB, kUrlC})),
            3u);
}

TEST(MotivatingExampleTest, OrderingMatchesPaper) {
  const std::size_t in_place =
      intermediate_records(records({kUrlA, kUrlA, kUrlA}),
                           records({kUrlA, kUrlB, kUrlB, kUrlC}));
  const std::size_t agnostic =
      intermediate_records(records({kUrlA, kUrlA, kUrlA, kUrlB}),
                           records({kUrlA, kUrlB, kUrlC}));
  const std::size_t aware =
      intermediate_records(records({kUrlA, kUrlA, kUrlA, kUrlA}),
                           records({kUrlB, kUrlB, kUrlC}));
  EXPECT_LT(aware, in_place);
  EXPECT_LT(in_place, agnostic);
}

}  // namespace
}  // namespace bohr::core
