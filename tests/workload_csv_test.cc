// Tests for the custom-workload CSV loader.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "src/faas/single_study.h"
#include "src/workloads/workload_csv.h"
#include "tests/temp_path.h"

namespace desiccant {
namespace {

constexpr char kHeader[] =
    "name,language,stage,alloc_kib,object_bytes,persistent_kib,window_kib,exec_ms,"
    "carry_kib,init_kib,weak_kib,weak_deopt\n";

class WorkloadCsvTest : public ::testing::Test {
 protected:
  std::string WriteCsv(const std::string& body) {
    const std::string path = UniqueTempPath("workloads.csv");
    std::ofstream out(path);
    out << kHeader << body;
    return path;
  }

  void TearDown() override {
    std::remove(UniqueTempPath("workloads.csv").c_str());
    std::remove(UniqueTempPath("bad.csv").c_str());
  }
};

TEST_F(WorkloadCsvTest, LoadsSingleStageWorkload) {
  const std::string path =
      WriteCsv("my-fn,javascript,0,4096,1024,512,256,12.5,0,2048,0,1.0\n");
  std::string error;
  const auto workloads = LoadWorkloadsCsv(path, &error);
  ASSERT_EQ(workloads.size(), 1u) << error;
  const WorkloadSpec& w = workloads[0];
  EXPECT_EQ(w.name, "my-fn");
  EXPECT_EQ(w.language, Language::kJavaScript);
  ASSERT_EQ(w.chain_length(), 1u);
  EXPECT_EQ(w.stages[0].alloc_bytes, 4096 * kKiB);
  EXPECT_EQ(w.stages[0].object_size, 1024u);
  EXPECT_DOUBLE_EQ(w.stages[0].exec_ms, 12.5);
  EXPECT_EQ(w.stages[0].init_churn_bytes, 2048 * kKiB);
}

TEST_F(WorkloadCsvTest, LoadsChains) {
  const std::string path = WriteCsv(
      "etl,java,0,8192,2048,1024,1024,20,4096,8192,0,1.0\n"
      "etl,java,1,4096,2048,1024,1024,10,0,4096,0,1.0\n"
      "tiny,python,0,512,256,128,64,1,0,512,0,1.0\n");
  std::string error;
  const auto workloads = LoadWorkloadsCsv(path, &error);
  ASSERT_EQ(workloads.size(), 2u) << error;
  EXPECT_EQ(workloads[0].chain_length(), 2u);
  EXPECT_EQ(workloads[0].stages[0].carry_bytes, 4096 * kKiB);
  EXPECT_EQ(workloads[1].language, Language::kPython);
}

TEST_F(WorkloadCsvTest, RejectsBadHeader) {
  const std::string path = UniqueTempPath("bad.csv");
  std::ofstream(path) << "name,foo\nx,y\n";
  std::string error;
  EXPECT_TRUE(LoadWorkloadsCsv(path, &error).empty());
  EXPECT_NE(error.find("header"), std::string::npos);
}

TEST_F(WorkloadCsvTest, RejectsUnknownLanguage) {
  const std::string path = WriteCsv("x,rust,0,1,256,1,1,1,0,0,0,1.0\n");
  std::string error;
  EXPECT_TRUE(LoadWorkloadsCsv(path, &error).empty());
  EXPECT_NE(error.find("language"), std::string::npos);
}

TEST_F(WorkloadCsvTest, RejectsMissingStage) {
  const std::string path = WriteCsv(
      "x,java,0,1024,256,64,64,1,0,0,0,1.0\n"
      "x,java,2,1024,256,64,64,1,0,0,0,1.0\n");
  std::string error;
  EXPECT_TRUE(LoadWorkloadsCsv(path, &error).empty());
  EXPECT_NE(error.find("missing stage"), std::string::npos);
}

TEST_F(WorkloadCsvTest, RejectsDuplicateStage) {
  const std::string path = WriteCsv(
      "x,java,0,1024,256,64,64,1,0,0,0,1.0\n"
      "x,java,0,1024,256,64,64,1,0,0,0,1.0\n");
  std::string error;
  EXPECT_TRUE(LoadWorkloadsCsv(path, &error).empty());
  EXPECT_NE(error.find("duplicate"), std::string::npos);
}

TEST_F(WorkloadCsvTest, RejectsMixedLanguageChain) {
  const std::string path = WriteCsv(
      "x,java,0,1024,256,64,64,1,0,0,0,1.0\n"
      "x,python,1,1024,256,64,64,1,0,0,0,1.0\n");
  std::string error;
  EXPECT_TRUE(LoadWorkloadsCsv(path, &error).empty());
  EXPECT_NE(error.find("mixes languages"), std::string::npos);
}

TEST_F(WorkloadCsvTest, LoadedWorkloadRunsEndToEnd) {
  const std::string path =
      WriteCsv("custom,javascript,0,6144,2048,1024,1024,10,0,3072,0,1.0\n");
  std::string error;
  const auto workloads = LoadWorkloadsCsv(path, &error);
  ASSERT_EQ(workloads.size(), 1u) << error;
  StudyConfig config;
  ChainStudy study(workloads[0], config);
  ChainSample sample;
  for (int i = 0; i < 20; ++i) {
    sample = study.Step();
  }
  const uint64_t vanilla = sample.uss;
  study.ReclaimAll();
  EXPECT_LT(study.Sample().uss, vanilla);
}

}  // namespace
}  // namespace desiccant
