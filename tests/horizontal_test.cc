#include "core/horizontal.h"

#include <gtest/gtest.h>

namespace av {
namespace {

std::vector<std::string> DirtyColumn(size_t clean, size_t dirty) {
  // Figure 9: numeric values with ad-hoc "-" markers.
  std::vector<std::string> values;
  for (size_t i = 0; i < clean; ++i) {
    values.push_back(std::to_string(10000 + i * 7) + "," +
                     std::to_string(200 + i));
  }
  for (size_t i = 0; i < dirty; ++i) values.push_back("-");
  return values;
}

/// The horizontal cut of `values` the way FMDV-H takes it: one training
/// profile, then the heaviest group within theta.
struct Cut {
  ColumnProfile profile;
  Result<ConformingSplit> split;

  Cut(ColumnView values, const AutoValidateOptions& opts)
      : profile(TrainingProfile(values, opts.gen, /*vertical=*/false)),
        split(SelectConforming(profile, /*cut=*/true, opts)) {}

  /// The distinct conforming values, in first-seen order.
  std::vector<std::string_view> Conforming() const {
    std::vector<std::string_view> out;
    for (const uint32_t id : split->group->value_ids) {
      out.push_back(profile.value(id));
    }
    return out;
  }
};

TEST(SelectConformingTest, CutsNonConformingWithinTheta) {
  AutoValidateOptions opts;
  opts.theta = 0.1;
  const auto values = DirtyColumn(99, 1);
  const Cut cut(values, opts);
  ASSERT_TRUE(cut.split.ok()) << cut.split.status().ToString();
  EXPECT_EQ(cut.split->group->weight, 99u);
  EXPECT_EQ(cut.split->nonconforming, 1u);
}

TEST(SelectConformingTest, RejectsWhenBeyondTheta) {
  AutoValidateOptions opts;
  opts.theta = 0.05;
  const auto values = DirtyColumn(90, 10);
  const Cut cut(values, opts);
  EXPECT_FALSE(cut.split.ok());
  EXPECT_EQ(cut.split.status().code(), StatusCode::kInfeasible);
}

TEST(SelectConformingTest, CleanColumnPassesThrough) {
  AutoValidateOptions opts;
  const auto values = DirtyColumn(50, 0);
  const Cut cut(values, opts);
  ASSERT_TRUE(cut.split.ok());
  EXPECT_EQ(cut.split->group->weight, 50u);
  EXPECT_EQ(cut.split->nonconforming, 0u);
}

TEST(SelectConformingTest, EmptyStringsCountAsNonConforming) {
  AutoValidateOptions opts;
  opts.theta = 0.5;
  std::vector<std::string> values = {"123", "456", ""};
  const Cut cut(values, opts);
  ASSERT_TRUE(cut.split.ok());
  EXPECT_EQ(cut.split->group->weight, 2u);
  EXPECT_EQ(cut.split->nonconforming, 1u);
}

TEST(SelectConformingTest, PicksHeaviestShapeNotFirstShape) {
  AutoValidateOptions opts;
  opts.theta = 0.5;
  std::vector<std::string> values = {"a-b", "1:2", "3:4", "5:6"};
  const Cut cut(values, opts);
  ASSERT_TRUE(cut.split.ok());
  EXPECT_EQ(cut.Conforming(),
            (std::vector<std::string_view>{"1:2", "3:4", "5:6"}));
}

TEST(SelectConformingTest, MixedChunkClassesShareOneShape) {
  // Hex GUID segments vs all-digit segments must NOT be split apart.
  AutoValidateOptions opts;
  opts.theta = 0.0;  // zero tolerance: everything must be one shape
  std::vector<std::string> values = {"ab12-34", "1234-99", "cdef-01"};
  const Cut cut(values, opts);
  ASSERT_TRUE(cut.split.ok()) << cut.split.status().ToString();
  EXPECT_EQ(cut.split->group->weight, 3u);
}

TEST(SelectConformingTest, ThetaZeroRejectsAnyDirt) {
  AutoValidateOptions opts;
  opts.theta = 0.0;
  const auto values = DirtyColumn(99, 1);
  const Cut cut(values, opts);
  EXPECT_FALSE(cut.split.ok());
}

TEST(SelectConformingTest, EmptyColumnIsInvalid) {
  AutoValidateOptions opts;
  const Cut cut({}, opts);
  EXPECT_EQ(cut.split.status().code(), StatusCode::kInvalidArgument);
}

TEST(SelectConformingTest, AllEmptyValuesInfeasible) {
  AutoValidateOptions opts;
  const std::vector<std::string> values = {"", "", ""};
  const Cut cut(values, opts);
  EXPECT_EQ(cut.split.status().code(), StatusCode::kInfeasible);
}

}  // namespace
}  // namespace av
