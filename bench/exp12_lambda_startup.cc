// Extension experiment 12 — serverless invocation latency (paper §2.4.3). The paper
// motivates ODF for lambda cloning but does not evaluate it; this bench completes the story:
// cold start vs warm start via fork vs warm start via on-demand-fork, on a template with a
// populated runtime image + precomputed function state.
#include "bench/bench_common.h"
#include "src/apps/lambda.h"

namespace odf {
namespace {

// Appends each invocation's startup and end-to-end latency (us) to the two vectors.
void RunMode(ForkMode mode, int invocations, std::vector<double>* startup,
             std::vector<double>* end_to_end, double* deploy_seconds, uint64_t* checksum) {
  Kernel kernel;
  LambdaConfig config;
  config.fork_mode = mode;
  LambdaPlatform platform = LambdaPlatform::Deploy(kernel, config);
  *deploy_seconds = platform.deploy_seconds();
  Rng rng(5);
  for (int i = 0; i < invocations; ++i) {
    uint8_t payload[32];
    for (auto& b : payload) {
      b = static_cast<uint8_t>(rng.Next());
    }
    LambdaInvocation result = platform.Invoke(payload);
    startup->push_back(result.startup_us);
    end_to_end->push_back(result.startup_us + result.run_us);
    *checksum ^= result.result;
  }
}

void Run() {
  BenchConfig config = BenchConfig::FromEnv();
  int invocations = config.fast ? 20 : 200;
  PrintHeader("Exp. 12 — serverless warm-start latency (lambda cloning, §2.4.3)",
              "fork startup scales with template size; ODF keeps clone startup in the "
              "microseconds");

  // Cold-start baseline (one sample is representative; it is seconds, not microseconds).
  Kernel cold_kernel;
  LambdaConfig cold_config;
  LambdaPlatform cold_platform = LambdaPlatform::Deploy(cold_kernel, cold_config);
  uint8_t payload[32] = {1, 2, 3};
  LambdaInvocation cold = cold_platform.InvokeCold(payload);

  std::vector<double> classic_startup;
  std::vector<double> classic_total;
  std::vector<double> odf_startup;
  std::vector<double> odf_total;
  double deploy_classic = 0;
  double deploy_odf = 0;
  uint64_t checksum_classic = 0;
  uint64_t checksum_odf = 0;
  RunMode(ForkMode::kClassic, invocations, &classic_startup, &classic_total, &deploy_classic,
          &checksum_classic);
  RunMode(ForkMode::kOnDemand, invocations, &odf_startup, &odf_total, &deploy_odf,
          &checksum_odf);
  ODF_CHECK(checksum_classic == checksum_odf) << "handlers must compute identical results";

  TablePrinter table({"Strategy", "startup p50 (us)", "startup p99 (us)",
                      "end-to-end p50 (us)"});
  table.AddRow({"cold start (no template)", TablePrinter::FormatDouble(cold.startup_us, 0),
                "-", TablePrinter::FormatDouble(cold.startup_us + cold.run_us, 0)});
  table.AddRow({"warm, fork", TablePrinter::FormatDouble(Percentile(classic_startup, 50), 1),
                TablePrinter::FormatDouble(Percentile(classic_startup, 99), 1),
                TablePrinter::FormatDouble(Percentile(classic_total, 50), 1)});
  table.AddRow({"warm, on-demand-fork",
                TablePrinter::FormatDouble(Percentile(odf_startup, 50), 1),
                TablePrinter::FormatDouble(Percentile(odf_startup, 99), 1),
                TablePrinter::FormatDouble(Percentile(odf_total, 50), 1)});
  table.Print();
  WriteBenchJson("exp12_lambda_startup", config, {{"lambda_startup", &table}});
  std::printf(
      "\nTemplate deploy (amortised once): %.2f s. Startup reduction vs fork: %.1fx.\n"
      "Shape check: cold >> warm-fork >> warm-ODF, with ODF startup in single-digit us.\n",
      deploy_odf, Percentile(classic_startup, 50) / Percentile(odf_startup, 50));
}

}  // namespace
}  // namespace odf

int main() {
  odf::Run();
  return 0;
}
