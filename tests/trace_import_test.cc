// Tests for the Azure-dataset importer.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "src/trace/trace_import.h"
#include "tests/temp_path.h"

namespace desiccant {
namespace {

class TraceImportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    counts_path_ = UniqueTempPath("invocations.csv");
    durations_path_ = UniqueTempPath("durations.csv");
    // Three functions, five minutes of counts.
    std::ofstream counts(counts_path_);
    counts << "HashOwner,HashApp,HashFunction,Trigger,1,2,3,4,5\n"
           << "o1,a1,fA,http,2,0,1,0,3\n"
           << "o1,a1,fB,timer,1,1,1,1,1\n"
           << "o2,a2,fC,queue,0,0,0,0,10\n";
    counts.close();
    std::ofstream durations(durations_path_);
    durations << "HashOwner,HashApp,HashFunction,Average,Count\n"
              << "o1,a1,fA,18.0,100\n"
              << "o1,a1,fB,0.9,500\n"
              << "o2,a2,fC,95.0,42\n";
    durations.close();
  }

  void TearDown() override {
    std::remove(counts_path_.c_str());
    std::remove(durations_path_.c_str());
  }

  std::string counts_path_;
  std::string durations_path_;
};

TEST_F(TraceImportTest, LoadsCountsAndDurations) {
  std::string error;
  auto functions = LoadAzureInvocationCounts(counts_path_, &error);
  ASSERT_EQ(functions.size(), 3u) << error;
  EXPECT_EQ(functions[0].id, "fA");
  EXPECT_EQ(functions[0].per_minute, (std::vector<uint32_t>{2, 0, 1, 0, 3}));
  ASSERT_TRUE(JoinAzureDurations(durations_path_, &functions, &error)) << error;
  EXPECT_DOUBLE_EQ(functions[0].avg_duration_ms, 18.0);
  EXPECT_DOUBLE_EQ(functions[2].avg_duration_ms, 95.0);
}

TEST_F(TraceImportTest, MissingFileReportsError) {
  std::string error;
  EXPECT_TRUE(LoadAzureInvocationCounts("/no/such/file.csv", &error).empty());
  EXPECT_FALSE(error.empty());
}

TEST_F(TraceImportTest, MalformedHeaderReportsError) {
  const std::string bad = UniqueTempPath("bad.csv");
  std::ofstream out(bad);
  out << "a,b,c\nx,y,z\n";
  out.close();
  std::string error;
  EXPECT_TRUE(LoadAzureInvocationCounts(bad, &error).empty());
  EXPECT_NE(error.find("HashFunction"), std::string::npos);
  std::remove(bad.c_str());
}

TEST_F(TraceImportTest, MatchesByClosestDuration) {
  std::string error;
  auto functions = LoadAzureInvocationCounts(counts_path_, &error);
  ASSERT_TRUE(JoinAzureDurations(durations_path_, &functions, &error));
  // sort: 18 ms -> fA (18.0); time: 0.8 ms -> fB (0.9); image-resize: 45 ms
  // -> fC (95, the only one left).
  const WorkloadSpec* sort = FindWorkload("sort");
  const WorkloadSpec* time_fn = FindWorkload("time");
  const WorkloadSpec* image = FindWorkload("image-resize");
  const auto matched = MatchWorkloadsByDuration(functions, {sort, time_fn, image});
  ASSERT_EQ(matched.size(), 3u);
  EXPECT_EQ(matched[0].imported->id, "fA");
  EXPECT_EQ(matched[1].imported->id, "fB");
  EXPECT_EQ(matched[2].imported->id, "fC");
}

TEST_F(TraceImportTest, MoreWorkloadsThanFunctionsTruncates) {
  std::string error;
  auto functions = LoadAzureInvocationCounts(counts_path_, &error);
  std::vector<const WorkloadSpec*> workloads;
  for (const WorkloadSpec& w : WorkloadSuite()) {
    workloads.push_back(&w);
  }
  const auto matched = MatchWorkloadsByDuration(functions, workloads);
  EXPECT_EQ(matched.size(), 3u);
}

TEST_F(TraceImportTest, GenerateRespectsCountsAndScale) {
  std::string error;
  auto functions = LoadAzureInvocationCounts(counts_path_, &error);
  ASSERT_TRUE(JoinAzureDurations(durations_path_, &functions, &error));
  const WorkloadSpec* sort = FindWorkload("sort");
  const auto matched = MatchWorkloadsByDuration(functions, {sort});  // fA: 2+0+1+0+3 = 6
  // Scale 1: five trace minutes span 300 s.
  const auto arrivals =
      GenerateFromImported(matched, 1.0, 0, FromSeconds(300), /*seed=*/9);
  EXPECT_EQ(arrivals.size(), 6u);
  EXPECT_TRUE(std::is_sorted(arrivals.begin(), arrivals.end(),
                             [](const TraceArrival& a, const TraceArrival& b) {
                               return a.time < b.time;
                             }));
  // Scale 10 compresses the same arrivals into 30 s.
  const auto compressed =
      GenerateFromImported(matched, 10.0, 0, FromSeconds(30), /*seed=*/9);
  EXPECT_EQ(compressed.size(), 6u);
  for (const TraceArrival& a : compressed) {
    EXPECT_LT(a.time, FromSeconds(30));
  }
}

TEST_F(TraceImportTest, GenerateWindowFilters) {
  std::string error;
  auto functions = LoadAzureInvocationCounts(counts_path_, &error);
  const WorkloadSpec* sort = FindWorkload("sort");
  const auto matched = MatchWorkloadsByDuration(functions, {sort});
  // Only minute 5 (fA has 3 arrivals there) falls in [240 s, 300 s).
  const auto arrivals =
      GenerateFromImported(matched, 1.0, FromSeconds(240), FromSeconds(300), 9);
  EXPECT_EQ(arrivals.size(), 3u);
}

TEST_F(TraceImportTest, GenerateIsDeterministic) {
  std::string error;
  auto functions = LoadAzureInvocationCounts(counts_path_, &error);
  const WorkloadSpec* sort = FindWorkload("sort");
  const auto matched = MatchWorkloadsByDuration(functions, {sort});
  const auto a = GenerateFromImported(matched, 5.0, 0, FromSeconds(60), 11);
  const auto b = GenerateFromImported(matched, 5.0, 0, FromSeconds(60), 11);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
  }
}

}  // namespace
}  // namespace desiccant
