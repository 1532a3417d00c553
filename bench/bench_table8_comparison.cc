// Table 8: query time across methods — IS-LABEL (disk-resident labels),
// IM-ISL (labels in memory), VC-Index converted to P2P, and the in-memory
// bidirectional Dijkstra IM-DIJ. The IS-LABEL (disk) column reads
// labels.isl with pread and decodes each label per query, but the file
// was saved a moment earlier and the page cache holds it: the column
// prices the read path, not the device. Only +HDD-model carries a device
// cost, 10 ms per label read. IM-DIJ is an index built with
// forced_k = 1: nothing is peeled, every label is {(v, 0)} and G_k is G,
// so its queries run IM-ISL's search loop without labels, and the table
// compares IS-LABEL against the same search on the whole graph. Such an
// index carries a landmark table over all of G (DESIGN §7.6), which the
// paper's baseline has not: IM-DIJ's engine runs with µ pruning off, so
// it starts at µ = ∞, and at k = 1 Equation 1 is ∞ for every s != t
// anyway. That is exactly the paper's plain bidirectional Dijkstra. Table
// 9's VC-Index construction costs are produced by bench_table9_vc_index.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <vector>

#include "baseline/vc_index.h"
#include "bench/bench_common.h"
#include "core/index.h"
#include "core/query.h"
#include "util/timer.h"

using namespace islabel;
using namespace islabel::bench;

namespace {

constexpr int kPasses = 5;

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main() {
  const double scale = ScaleFromEnv();
  const std::size_t num_queries = QueriesFromEnv();
  PrintHeader("Table 8: query time of IS-LABEL, IM-ISL, VC-Index(P2P), "
              "IM-DIJ",
              "paper: BTC 11.55ms / - / 4246ms / - | Web 28.02 / - / 31656 "
              "/ 430.67 |\nas-Skitter 20.05 / 7.15 / 3712 / 23.16 | "
              "wiki-Talk 12.22 / 1.23 / 554 / 9.97 |\nGoogle 12.97 / 2.44 "
              "/ 1285 / 9.09   (all ms; '-' = did not fit in memory)");
  std::printf("%-14s %14s %14s %12s %12s %12s\n", "dataset",
              "IS-LABEL(ms)", "+HDD-model", "IM-ISL(ms)", "VC-P2P(ms)",
              "IM-DIJ(ms)");

  const std::string tmp = "/tmp/islabel_bench_t8";
  for (const std::string& name : DatasetNames()) {
    Dataset d = MakeDataset(name, scale);
    auto queries = MakeQueries(d.graph, num_queries, 2024);

    // The index, and the same index saved and reloaded with its labels on
    // disk.
    auto built = ISLabelIndex::Build(d.graph, IndexOptions{});
    if (!built.ok()) continue;
    std::filesystem::create_directories(tmp);
    std::optional<ISLabelIndex> loaded;
    if (built->Save(tmp).ok()) {
      auto l = ISLabelIndex::Load(tmp, /*labels_in_memory=*/false);
      if (l.ok()) loaded.emplace(std::move(l).value());
    }

    // VC-Index converted to P2P.
    double vc_ms = -1.0;
    {
      auto vc = VcIndex::Build(d.graph);
      if (vc.ok()) {
        WallTimer t;
        for (auto [s, u] : queries) (void)vc->QueryP2P(s, u);
        vc_ms = t.ElapsedMillis() / num_queries;
      }
    }

    // IS-LABEL on disk, IM-ISL (the same index, labels in memory) and
    // IM-DIJ (the index at k = 1, its engine without µ pruning), each
    // through one engine. One cold pass of a few ms cannot order them, so
    // each gets an untimed warm-up pass, then kPasses timed passes
    // alternate over the same pairs and each cell prints its median pass.
    // +HDD-model adds 10 ms per label read of the warm-up pass
    // (QueryStats::label_ios) to the disk column: the device cost the
    // page cache hides.
    double disk_ms = -1.0, hdd_model_ms = -1.0;
    double imisl_ms = -1.0, dij_ms = -1.0;
    IndexOptions k1;
    k1.forced_k = 1;
    auto bidij = ISLabelIndex::Build(d.graph, k1);
    if (bidij.ok() && loaded.has_value()) {
      QueryEngine disk_engine(&loaded->hierarchy(),
                              LabelProvider(loaded->label_store()));
      QueryEngine imisl_engine(&built->hierarchy(),
                               LabelProvider(&built->labels()));
      QueryEngine dij_engine(&bidij->hierarchy(),
                             LabelProvider(&bidij->labels()));
      dij_engine.set_disable_mu_pruning(true);
      auto pass_ms = [&](QueryEngine& engine, std::uint64_t* ios) {
        WallTimer t;
        for (auto [s, u] : queries) {
          Distance dist = 0;
          QueryStats stats;
          (void)engine.Query(s, u, &dist, ios != nullptr ? &stats : nullptr);
          if (ios != nullptr) *ios += stats.label_ios;
        }
        return t.ElapsedMillis() / num_queries;
      };
      std::uint64_t ios = 0;
      (void)pass_ms(disk_engine, &ios);
      (void)pass_ms(imisl_engine, nullptr);
      (void)pass_ms(dij_engine, nullptr);
      std::vector<double> disk, imisl, dij;
      for (int p = 0; p < kPasses; ++p) {
        disk.push_back(pass_ms(disk_engine, nullptr));
        imisl.push_back(pass_ms(imisl_engine, nullptr));
        dij.push_back(pass_ms(dij_engine, nullptr));
      }
      disk_ms = Median(disk);
      hdd_model_ms =
          disk_ms + static_cast<double>(ios) * 10.0 / num_queries;
      imisl_ms = Median(imisl);
      dij_ms = Median(dij);
    }

    std::printf("%-14s %14.3f %14.1f %12.3f %12.3f %12.3f\n", d.name.c_str(),
                disk_ms, hdd_model_ms, imisl_ms, vc_ms, dij_ms);
    std::error_code ec;
    std::filesystem::remove_all(tmp, ec);
  }
  std::printf("\nShape check (the paper's ordering): VC-Index(P2P) is "
              "orders of magnitude slower than\nIS-LABEL; IM-ISL beats "
              "IM-DIJ, the plain bidirectional Dijkstra (the index at\n"
              "k = 1 with mu pruning off, so without a landmark bound). "
              "IS-LABEL(ms) reads\na labels.isl the page cache holds "
              "(pread + decode), so it sits near IM-ISL;\nonly +HDD-model "
              "carries the device cost, in the ~10-30ms band the paper "
              "reports.\n");
  return 0;
}
