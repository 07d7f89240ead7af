// The global solve runs k-MCA-CC once per connected component and stitches
// the selections in component order (RunGlobalPredict, core/auto_bi.cc); a
// graph that is one island is a partition of one. This pins the invariant
// that licenses that single path, property 7 of autobi_fuzz
// (CheckStitchedSolve), at 1, 2 and 8 threads: on random instances and on
// copies padded with isolated vertices, the stitched solve reaches the
// whole-graph objective with the whole-graph edges (up to exact cost ties),
// and on a graph that is one component its KmcaCcStats are identical too.

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "fuzz/generator.h"
#include "fuzz/metamorphic.h"
#include "graph/join_graph.h"
#include "graph/kmca_cc.h"
#include "graph/partition.h"

namespace autobi {
namespace {

// `g` with `extra` isolated vertices interleaved at random positions; the
// original vertices keep their relative order and edges keep their order.
JoinGraph PadWithIsolatedVertices(const JoinGraph& g, int extra, Rng& rng) {
  const int n = g.num_vertices() + extra;
  std::vector<char> isolated(size_t(n), 0);
  for (int placed = 0; placed < extra;) {
    size_t v = rng.NextBelow(uint64_t(n));
    if (!isolated[v]) {
      isolated[v] = 1;
      ++placed;
    }
  }
  std::vector<int> new_id;
  for (int v = 0; v < n; ++v) {
    if (!isolated[size_t(v)]) new_id.push_back(v);
  }
  JoinGraph out(n);
  for (const JoinEdge& e : g.edges()) {
    out.AddEdge(new_id[size_t(e.src)], new_id[size_t(e.dst)], e.src_columns,
                e.dst_columns, e.probability, e.one_to_one, e.pair_id);
  }
  return out;
}

// How many graphs of a run had each shape.
struct Coverage {
  size_t one_component = 0;  // Generated graphs that are one component.
  size_t one_island = 0;     // Padded copies with one solvable component.
  size_t many_islands = 0;   // Padded copies with several.
};

// Runs CheckStitchedSolve at 1, 2 and 8 threads on each generated instance
// and on a copy padded with isolated vertices.
Coverage ExpectStitchedMatchesWhole(const JoinGraphGenOptions& gen,
                                    uint64_t seed, int instances) {
  Coverage coverage;
  Rng rng(seed);
  for (int i = 0; i < instances; ++i) {
    JoinGraphInstance inst = GenJoinGraph(gen, rng);
    JoinGraph padded = PadWithIsolatedVertices(
        inst.graph, 1 + int(rng.NextBelow(4)), rng);
    coverage.one_component += PartitionJoinGraph(inst.graph).size() == 1;
    size_t solvable = 0;
    for (const GraphComponent& c : PartitionJoinGraph(padded)) {
      solvable += !c.edge_ids.empty();
    }
    coverage.one_island += solvable == 1;
    coverage.many_islands += solvable > 1;
    KmcaCcOptions options;
    options.penalty_weight = inst.penalty_weight;
    options.max_one_mca_calls = 200'000;
    for (const JoinGraph* g : {&inst.graph, &padded}) {
      for (int threads : {1, 2, 8}) {
        bool exhausted = false;
        CheckResult r = CheckStitchedSolve(*g, options, threads, &exhausted);
        EXPECT_TRUE(r.ok) << "instance " << i
                          << (g == &padded ? " padded" : "") << ", threads "
                          << threads << ": " << r.kind << ": " << r.message;
      }
    }
  }
  return coverage;
}

TEST(PartitionSolveTest, OneIslandWithIsolatedVerticesMatchesWholeGraph) {
  JoinGraphGenOptions gen;
  gen.min_vertices = 3;
  gen.max_vertices = 10;
  gen.min_edges = 4;
  gen.max_edges = 24;
  gen.max_blocks = 1;  // One block: most instances are a single island.
  gen.conflict_density = 0.6;
  gen.edge_skew = 1.0;
  Coverage coverage = ExpectStitchedMatchesWhole(gen, 0x15A7Du, 120);
  EXPECT_GE(coverage.one_component, 30u);
  EXPECT_GE(coverage.one_island, 60u);
}

TEST(PartitionSolveTest, ManyIslandsMatchWholeGraph) {
  JoinGraphGenOptions gen;
  gen.min_vertices = 6;
  gen.max_vertices = 16;
  gen.min_edges = 6;
  gen.max_edges = 30;
  gen.max_blocks = 4;
  gen.cross_block_prob = 0.0;  // Blocks stay disconnected.
  gen.conflict_density = 0.5;
  gen.edge_skew = 1.0;
  Coverage coverage = ExpectStitchedMatchesWhole(gen, 0x15A7Eu, 120);
  EXPECT_GE(coverage.many_islands, 60u);
}

}  // namespace
}  // namespace autobi
